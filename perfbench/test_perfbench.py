"""Smoke-size checks of the benchmark itself: every metric is printed with
its unit, the correctness checks pass, a broken ledger fails the run, and a
missing program makes the command fail without a result."""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import dpflsim.engine

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    assert bench.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                       "--trace", str(trace), "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(capsys, workload, trace):
    result, lines = _run(capsys, workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_run_ratio = 0.0 failed/attempted" in lines
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trace.spans_absent"] == 0
        assert values["trace.remainder_s"] >= 0
        assert values["trace.spans_self_s"] + values["trace.remainder_s"] == \
            pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_broken_ledger_counts_as_failed_run(monkeypatch, tmp_path):
    consume = dpflsim.engine.consume_budget

    def undercharge(budget, per_round_epsilon, per_round_delta=0.0):
        return consume(budget, per_round_epsilon / 2, per_round_delta)

    monkeypatch.setattr(dpflsim.engine, "consume_budget", undercharge)
    result, _ = bench.measure("rounds-M", 0, 0, True, True, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_missing_span_target_is_reported_absent():
    tracer = bench.Tracer({"gone": ["dpflsim.engine:no_such_function"],
                           "kept": ["dpflsim.engine:aggregate"]})
    with tracer:
        dpflsim.engine.aggregate([[1.0]], 1)
    assert tracer.absent == ["gone"]
    assert tracer.calls == {"gone": 0, "kept": 1}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rounds-M",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
