"""Every `python` block of README.md runs as written, and its config table
names every config key."""

import dataclasses
import re
from pathlib import Path

import pytest

from dpflsim.config import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_the_python_examples():
    # the run_comparison example and the hand-built FederatedProblem
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()


def test_config_table_lists_exactly_the_config_fields():
    # the first column of each row of the "Configuration keys" table names
    # one or more keys, each in backticks
    section = README.read_text().split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    listed = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == {f.name for f in dataclasses.fields(ExperimentConfig)}
