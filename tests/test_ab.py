"""Smoke test of `tools/ab.py`, the A/B benchmark tool."""

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True, check=False)
    return proc.returncode == 0


def test_differing_files_names_what_one_tree_changes(tmp_path):
    ab = _load_tool()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "perfbench" / "__pycache__").mkdir(parents=True)
        (tree / "perfbench" / "bench.py").write_text("x = 1\n")
        (tree / "BENCHMARK.json").write_text("{}\n")
    (trees[1] / "perfbench" / "__pycache__" / "bench.cpython-311.pyc").write_bytes(b"\0")
    assert ab.differing_files(*trees) == []
    (trees[1] / "perfbench" / "bench.py").write_text("x = 2\n")
    (trees[0] / "perfbench" / "extra.py").write_text("")
    (trees[1] / "BENCHMARK.json").write_text("[]\n")
    assert ab.differing_files(*trees) == ["perfbench/bench.py", "perfbench/extra.py",
                                          "BENCHMARK.json"]


def _tracked(*paths) -> list:
    out = subprocess.run(["git", "ls-files", "-z", *paths], cwd=ROOT, capture_output=True,
                         check=True).stdout.decode()
    return [name for name in out.split("\0") if name]


def _source_sha256(files) -> str:
    """perfbench's hash of the package: each `src/dpflsim/*.py` file's name and
    bytes, in name order, from (name, bytes) pairs."""
    digest = hashlib.sha256()
    for name, data in sorted(files):
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def test_snapshot_copies_the_tracked_working_tree(tmp_path):
    if not _in_git_checkout():
        pytest.skip("the snapshot lists the checkout's files with git ls-files")
    ab = _load_tool()
    ab.snapshot(tmp_path)
    tracked = [name for name in _tracked() if (ROOT / name).is_file()]
    copied = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")
                    if path.is_file())
    assert copied == sorted(tracked)
    for name in tracked:
        assert (tmp_path / name).read_bytes() == (ROOT / name).read_bytes(), name


def test_smoke_pair_against_head_writes_a_bench_file(tmp_path):
    if not _in_git_checkout():
        pytest.skip("tools/ab.py exports its base with git archive")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--base", "HEAD", "--workload", "wide-bcs", "--smoke",
         "--pairs", "1", "--seconds", "0", "--label", "smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert len(bench["base"]["commit"]) == len(bench["change"]["commit"]) == 40
    # the base side ran the committed package, the change side the working tree's
    package = [name for name in _tracked("src/dpflsim")
               if Path(name).parent == Path("src/dpflsim") and name.endswith(".py")]
    committed = [(Path(name).name, subprocess.run(
        ["git", "show", f"HEAD:{name}"], cwd=ROOT, capture_output=True, check=True).stdout)
        for name in package]
    working = [(Path(name).name, (ROOT / name).read_bytes()) for name in package]
    assert bench["base"]["source_sha256"] == _source_sha256(committed)
    assert bench["change"]["source_sha256"] == _source_sha256(working)
    assert bench["environment"]["source_sha256"] == bench["change"]["source_sha256"]
    assert bench["environment"]["cpus_usable"] == 1
    pair, = bench["workloads"]["wide-bcs"]["pairs"]
    assert pair["first"] == "base" and pair["base"]["correct"] and pair["change"]["correct"]
    metrics = bench["workloads"]["wide-bcs"]["metrics"]
    assert set(metrics) == {"client_rounds_per_s", "setup_s", "peak_rss_mb"}
    for entry in metrics.values():
        assert entry["pairs"] == 1 and entry["base"]["median"] > 0
        assert entry["change_wins"] in (0, 1)
    # after the file's path, one summary line per workload and metric
    path, *lines = proc.stdout.splitlines()
    assert path == str(tmp_path / "BENCH_smoke.json")
    printed = {line.split(":")[0].removeprefix("wide-bcs "): line for line in lines}
    assert len(lines) == len(printed) and set(printed) == set(metrics)
    for name, entry in metrics.items():
        line = printed[name]
        assert f"base {entry['base']['median']:.6g} [IQR " in line
        assert f"change wins {entry['change_wins']}/1, ratio_median " in line
        assert line.endswith(f"gain_exceeds_base_iqr {entry['gain_exceeds_base_iqr']}")
