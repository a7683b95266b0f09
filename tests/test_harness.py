"""Experiment orchestration: pairing, persistence, and summary assembly."""

import csv
import json
import math

import numpy as np
import pytest

import dpflsim.harness as harness
from dpflsim.config import ExperimentConfig
from dpflsim.data import Dataset
from dpflsim.errors import ConfigError, StateError
from dpflsim.harness import (
    build_problem,
    estimate_from_history,
    read_history,
    run_comparison,
    run_single,
    settings_from_config,
    write_history,
    write_summary_csv,
)
from dpflsim.mechanisms import PrivacyBudget


def _config(**kw):
    defaults = dict(num_clients=6, clients_per_round=2, total_rounds=10,
                    estimation_rounds=3, num_samples=300, test_samples=80,
                    feature_dim=3, seed=42)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_build_problem_shapes_and_determinism():
    cfg = _config()
    problem = build_problem(cfg)
    assert problem.num_clients == 6
    assert sum(d.num_samples for d in problem.client_data) == 300
    assert problem.test_data.num_samples == 80
    assert len(problem.budgets) == 6
    again = build_problem(cfg)
    assert [b.epsilon for b in problem.budgets] == [b.epsilon for b in again.budgets]
    assert np.array_equal(problem.client_data[0].features,
                          again.client_data[0].features)
    other = build_problem(_config(seed=43))
    assert [b.epsilon for b in problem.budgets] != [b.epsilon for b in other.budgets]


@pytest.mark.parametrize("dataset", ["synthetic_regression", "synthetic_classification"])
def test_build_problem_checks_once_whatever_the_client_count(monkeypatch, dataset):
    # the partition and the budgets are checked as wholes, so the number of
    # dataset and budget checks in one build does not grow with N
    counts = {}
    for cls in (Dataset, PrivacyBudget):
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    seen = []
    for num_clients in (50, 200):
        counts.update(Dataset=0, PrivacyBudget=0)
        problem = build_problem(_config(dataset=dataset, num_clients=num_clients,
                                        num_samples=4000))
        assert problem.num_clients == num_clients
        seen.append(dict(counts))
    assert seen[0] == seen[1]


def test_build_problem_classification_and_loss_cap():
    cfg = _config(dataset="synthetic_classification", num_classes=4,
                  delta_min=1e-5, delta_max=1e-4)
    problem = build_problem(cfg)
    assert problem.model.is_classification
    assert problem.model.num_classes == 4
    settings = settings_from_config(cfg)
    assert settings.loss_cap == pytest.approx(math.log(4.0))
    noise_free = settings_from_config(_config(zero_noise=True))
    assert noise_free.dp_enabled is False


def test_run_single_dispatches_by_algorithm():
    res = run_single(_config(algorithm="fedsgd"))
    assert res.algorithm == "fedsgd"
    assert res.plan_stage2 is None
    res = run_single(_config(algorithm="dpfl_bcs"))
    assert res.plan_stage2 is not None


def test_comparison_single_row_std_zero(tmp_path):
    summary = run_comparison(_config(), ["fedsgd"], num_seeds=1,
                             out_dir=tmp_path / "out")
    assert len(summary.rows) == 1
    row = summary.rows[0]
    assert row.algorithm == "fedsgd"
    assert row.std_final_metric == 0.0
    assert row.num_seeds == 1
    with open(tmp_path / "out" / "summary.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "algorithm,mechanism,mean_final_metric,std_final_metric,num_seeds"
    assert len(lines) == 2


def test_comparison_paired_and_deterministic(tmp_path):
    cfg = _config(total_rounds=8)
    a = run_comparison(cfg, ["fedsgd", "uniform_dp"], num_seeds=2)
    b = run_comparison(cfg, ["fedsgd", "uniform_dp"], num_seeds=2)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb
    # paired runs share the same per-seed problem; histories must agree on
    # the client roster
    out = tmp_path / "hist"
    run_comparison(cfg, ["fedsgd", "uniform_dp"], num_seeds=1, out_dir=out)
    h_fed = read_history(out / "history_fedsgd_seed42.jsonl")
    h_dp = read_history(out / "history_uniform_dp_seed42.jsonl")
    assert h_fed.header["clients"] == h_dp.header["clients"]
    assert h_fed.header["seed"] == h_dp.header["seed"] == 42


def test_comparison_fedsgd_bounds_dp_algorithms():
    cfg = _config(num_clients=5, total_rounds=12, estimation_rounds=3,
                  epsilon_min=0.5, epsilon_max=2.0)
    summary = run_comparison(cfg, ["fedsgd", "uniform_dp", "weiavg"], num_seeds=3)
    means = {row.algorithm: row.mean_final_metric for row in summary.rows}
    assert means["fedsgd"] <= means["uniform_dp"]
    assert means["fedsgd"] <= means["weiavg"]


def test_comparison_failure_names_seed_and_algorithm(monkeypatch):
    real = harness.dispatch_run

    def flaky(algorithm, problem, settings, seed, on_round=None):
        if algorithm == "weiavg":
            raise RuntimeError("boom")
        return real(algorithm, problem, settings, seed, on_round=on_round)

    monkeypatch.setattr(harness, "dispatch_run", flaky)
    with pytest.raises(StateError) as err:
        run_comparison(_config(), ["fedsgd", "weiavg"], num_seeds=1)
    assert "weiavg" in str(err.value)
    assert "42" in str(err.value)


def test_comparison_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        run_comparison(_config(), [], num_seeds=1)
    with pytest.raises(ConfigError):
        run_comparison(_config(), ["gradient_boost"], num_seeds=1)
    with pytest.raises(ConfigError):
        run_comparison(_config(), ["fedsgd"], num_seeds=0)


def test_history_round_trip(tmp_path):
    cfg = _config(algorithm="dpfl_bcs", total_rounds=6, estimation_rounds=3)
    result = run_single(cfg)
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    parsed = read_history(path)
    assert parsed.header["algorithm"] == "dpfl_bcs"
    assert parsed.header["num_clients"] == 6
    assert len(parsed.rounds) == len(result.rounds)
    for obj, record in zip(parsed.rounds, result.rounds):
        assert obj["t"] == record.t
        assert obj["stage"] == record.stage
        assert tuple(obj["selected"]) == record.selected
        assert obj["test_loss"] == record.test_loss
    assert parsed.summary["final_test_loss"] == result.final_test_loss
    assert parsed.summary["plan_stage2"]["counts"] == [
        int(c) for c in result.plan_stage2.counts]


def test_history_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(ConfigError):
        read_history(path)
    path.write_text('{"kind": "round", "t": 1}\n')
    with pytest.raises(ConfigError):
        read_history(path)
    path.write_text("not json\n")
    with pytest.raises(ConfigError):
        read_history(path)
    with pytest.raises(ConfigError):
        read_history(tmp_path / "missing.jsonl")


def test_estimate_from_history_replays_run(tmp_path):
    cfg = _config(algorithm="dpfl_bcs", total_rounds=8, estimation_rounds=3)
    result = run_single(cfg)
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    est = estimate_from_history(read_history(path))
    assert est.to_dict() == result.estimated_params.to_dict()


def test_estimate_from_history_names_missing_round(tmp_path):
    cfg = _config(algorithm="dpfl_bcs", total_rounds=8, estimation_rounds=3)
    result = run_single(cfg)
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    lines = path.read_text().splitlines()
    # drop the stage-one round t=2
    kept = [ln for ln in lines if json.loads(ln).get("t") != 2]
    trimmed = tmp_path / "trimmed.jsonl"
    trimmed.write_text("\n".join(kept) + "\n")
    with pytest.raises(ConfigError) as err:
        estimate_from_history(read_history(trimmed))
    assert "round 2" in str(err.value)


def test_write_summary_csv_format(tmp_path):
    rows = [harness.ComparisonRow("fedsgd", "gaussian", 0.125, 0.5, 3)]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["algorithm"] == "fedsgd"
    assert float(parsed[0]["mean_final_metric"]) == 0.125
    assert parsed[0]["num_seeds"] == "3"
