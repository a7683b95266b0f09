"""Seeded outputs against the digests recorded in tools/history_digests.expected."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "history_digests.py"
EXPECTED = ROOT / "tools" / "history_digests.expected"


def test_seeded_outputs_match_the_recorded_digests():
    lines = EXPECTED.read_text().splitlines()
    comments = [line[2:].split(" ", 1) for line in lines if line.startswith("# ")]
    recorded = {key: value for key, value in comments if key in ("python", "numpy")}
    running = {"python": platform.python_version(), "numpy": np.__version__}
    if recorded != running:
        # float formatting and the generators' streams may differ across versions
        pytest.skip(f"digests were recorded under {recorded}, this is {running}")
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [line for line in lines if not line.startswith("#")]
