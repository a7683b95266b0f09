"""Every `python` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

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
