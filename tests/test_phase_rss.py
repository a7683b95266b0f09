"""tools/phase_rss.py: one JSON line of memory figures per phase, in order."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "phase_rss.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("phase_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="the tool reads /proc/self/status")
@pytest.mark.parametrize("workload, phases", [
    ("wide-bcs", ["import", "build_problem", "run", "write_history"]),
    ("paired-ref", ["import", "run_comparison", "read_history"]),
])
def test_smoke_prints_each_phase_in_order(workload, phases):
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", workload, "--seed", "1",
                           "--smoke"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert (result["workload"], result["seed"], result["smoke"]) == (workload, 1, True)
    assert list(result["phases"]) == phases
    peaks = []
    for figures in result["phases"].values():
        assert list(figures) == ["vm_rss_mb", "vm_hwm_mb"]
        assert 0 < figures["vm_rss_mb"] <= figures["vm_hwm_mb"]
        peaks.append(figures["vm_hwm_mb"])
    assert peaks == sorted(peaks)
    assert result["peak_phase"] == phases[peaks.index(peaks[-1])]


def test_peak_phase_is_the_first_to_reach_the_last_peak():
    tool = _load_tool()

    def phases(*peaks):
        return {f"p{i}": {"vm_rss_mb": 1.0, "vm_hwm_mb": hwm} for i, hwm in enumerate(peaks)}

    assert tool.peak_phase(phases(40.0, 55.0, 55.0, 55.0)) == "p1"
    assert tool.peak_phase(phases(40.0, 50.0, 58.5)) == "p2"
    assert tool.peak_phase(phases(36.0)) == "p0"


def test_refuses_unknown_workloads_and_systems_without_the_status_file(tmp_path,
                                                                       monkeypatch, capsys):
    tool = _load_tool()
    # the tool puts the checkout's src/ and perfbench/ on the path it runs with
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as err:
        tool.main(["--workload", "nope", "--seed", "0"])
    assert err.value.code == 2 and "unknown workload 'nope'" in capsys.readouterr().err
    monkeypatch.setattr(tool, "STATUS", tmp_path / "status")
    assert tool.main(["--workload", "wide-bcs", "--seed", "0"]) == 2
    assert "does not exist" in capsys.readouterr().err
