"""tools/untested.py on one small test file: its listing and count lines."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "untested.py"
PACKAGE = ROOT / "src" / "dpflsim"

LISTED = re.compile(r"^(src/dpflsim/\w+\.py):(\d+): (.+)$")
COUNTED = re.compile(r"^(src/dpflsim/\w+\.py): (\d+) of (\d+) statements never ran$")


def test_untested_lists_the_statements_a_test_file_never_runs():
    proc = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider",
                           "tests/test_config.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    counts = {m[1]: (int(m[2]), int(m[3])) for m in map(COUNTED.match, lines) if m}
    assert list(counts) == [f"src/dpflsim/{p.name}" for p in sorted(PACKAGE.glob("*.py"))]
    # the listing comes after pytest's output and before the counts, each
    # line naming a statement's first line as the file has it
    start = next(i for i, line in enumerate(lines) if LISTED.match(line))
    listing = lines[start:len(lines) - len(counts)]
    listed = {}
    for line in listing:
        name, number, source = LISTED.match(line).groups()
        assert (ROOT / name).read_text().splitlines()[int(number) - 1].strip() == source
        listed[name] = listed.get(name, 0) + 1
    assert listed == {name: never for name, (never, _) in counts.items() if never}
    # the config tests never import the command line, and reach every refusal
    # of the config's validation
    never, statements = counts["src/dpflsim/cli.py"]
    assert never == statements > 0
    assert not [line for line in listing
                if line.startswith("src/dpflsim/config.py:") and "fail(" in line]


@pytest.mark.parametrize("argv, passed", [
    (["-q"], ["--hypothesis-seed=0", "-q"]),
    (["-q", "--hypothesis-seed=7"], ["-q", "--hypothesis-seed=7"]),
])
def test_untested_seeds_hypothesis_unless_the_caller_does(monkeypatch, capsys, argv, passed):
    # unseeded property tests draw new examples each run, so the counts
    # drifted by a statement between two runs of one tree; the trace is
    # stubbed, since a nested trace would end the one of a traced suite
    spec = importlib.util.spec_from_file_location("untested", TOOL)
    tool, seen = importlib.util.module_from_spec(spec), []
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "trace", lambda run: (run(), {}))
    monkeypatch.setattr(tool.pytest, "main", lambda args: seen.append(args) or 0)
    monkeypatch.setattr(tool.sys, "path", list(sys.path))
    assert tool.main(argv) == 0
    assert seen == [passed]
    assert capsys.readouterr().out.endswith("statements never ran\n")
