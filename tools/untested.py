"""List the package's statements that a pytest run never executes.

    python tools/untested.py [pytest arguments ...]

Run it from the root of a checkout, e.g. ``python tools/untested.py -q`` for
the whole suite or ``python tools/untested.py -q tests/test_cli.py`` for one
file. It puts the checkout's ``src`` first on ``sys.path`` and runs pytest in
this process, with every argument passed through, under ``sys.settrace`` and
``threading.settrace``. Only frames whose code lies in ``src/dpflsim`` are
traced line by line, so the rest of the run pays one call check per frame.
Code that tests run in a child process (a ``dpflsim`` subprocess, say) is not
traced.

Unless an argument starts with ``--hypothesis-seed``, it passes
``--hypothesis-seed=0``: Hypothesis then draws the same examples on every run
and reads and writes no example database, so two runs of one tree print the
same counts. Unseeded, the property tests draw new examples each run, and
some statements that only they reach (the fit residual's guards in
``selection.py``) run in one run and not in the next.

A statement is a node that ``ast`` finds in a module of ``src/dpflsim``, at
any depth, other than a def, a class, an import, a ``global`` or
``nonlocal`` declaration and a bare string (a docstring). It ran when any line
of its span ran; so a compound statement ran when its header or any statement
in its body did, and the statements in a body that never ran are listed one
by one.

After pytest's own output it prints one line per statement that never ran,
sorted by module and line::

    src/dpflsim/<module>.py:<line>: <the statement's first source line>

then one count line per module::

    src/dpflsim/<module>.py: <never ran> of <statements> statements never ran

The exit status is pytest's. Needs the standard library, pytest and
Hypothesis, whose pytest plugin takes the seed option (the suite needs it too).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpflsim"
# statements that compile to no line of their own, or that a module runs on import
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def statements(source: str) -> list:
    """(first line, last line) of every statement of `source`, by first line."""
    spans = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        spans.add((node.lineno, node.end_lineno))
    return sorted(spans)


def trace(run):
    """Call `run()` with the package's frames traced; returns its result and
    the lines that ran, a set per real path of a package file."""
    package = str(PACKAGE.resolve()) + os.sep
    ran, tracers = {}, {}

    def line_tracer(seen: set):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = os.path.realpath(filename)
            tracers[filename] = (line_tracer(ran.setdefault(path, set()))
                                 if path.startswith(package) else None)
        return tracers[filename]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        return run(), ran
    finally:
        sys.settrace(None)
        threading.settrace(None)


def report(ran: dict) -> list:
    """The listing and count lines for the package's modules, given the lines
    that ran per real path."""
    listing, totals = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(os.path.realpath(path), set())
        spans = statements(source)
        never = [first for first, last in spans
                 if not any(line in seen for line in range(first, last + 1))]
        name = path.relative_to(ROOT).as_posix()
        listing += [f"{name}:{first}: {lines[first - 1].strip()}" for first in never]
        totals.append(f"{name}: {len(never)} of {len(spans)} statements never ran")
    return listing + totals


def main(argv: list) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    if not any(arg.startswith("--hypothesis-seed") for arg in argv):
        argv = ["--hypothesis-seed=0", *argv]
    code, ran = trace(lambda: pytest.main(argv))
    print("\n".join(report(ran)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
