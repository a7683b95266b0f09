"""Every name a package module or a tool imports is used in that file, so a
refactor cannot leave a stale import behind. The package root defines exactly
the names that code outside the package reads through it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpflsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names that `source` imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def root_reads(source: str) -> set:
    """Names that `source` reads through the package root, submodules left
    out: `dpflsim.<name>`, `from dpflsim import <name>`, and the
    "dpflsim:<name>" targets that perfbench resolves on the root."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "dpflsim" and not node.level:
            names.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "dpflsim"):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"^dpflsim:(\w+)$", node.value))
    return names - {p.stem for p in MODULES}


def defined_names(source: str) -> set:
    """Names that the top level of `source` binds by import or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets)
    return names


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import numpy.linalg\nfrom x import a, b as c\nprint(a, numpy.linalg)\n")
    assert unused_imports(source) == ["c", "os", "osp"]


def test_checker_finds_root_reads():
    source = ("import dpflsim\nimport dpflsim.engine\nfrom dpflsim import cli, run_single\n"
              "from dpflsim.harness import read_history\n"
              "x = dpflsim.ALGORITHMS, dpflsim.engine.client_round\n"
              "SPANS = ['dpflsim:write_history', 'dpflsim.harness:build_problem']\n")
    assert root_reads(source) == {"ALGORITHMS", "run_single", "write_history"}


def test_package_has_modules():
    assert {"engine.py", "harness.py", "selection.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES + TOOLS,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tools/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_root_defines_exactly_the_names_read_through_it():
    # every Python file outside the package, and the README's examples
    outside = [p for p in ROOT.rglob("*.py")
               if not {"src", "__pycache__"} & set(p.relative_to(ROOT).parts)
               and not any(part.startswith(".") for part in p.relative_to(ROOT).parts)]
    sources = [p.read_text() for p in outside]
    sources += re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                          flags=re.M | re.S)
    read = set().union(*map(root_reads, sources))
    assert defined_names((PACKAGE / "__init__.py").read_text()) == read | {"__version__"}
