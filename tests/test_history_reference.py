"""Written histories against a frozen reference writer.

The `_reference_*` functions are copies of the history writer as it was when
a run kept lists of per-client records (`_Client` here) and `ClientLedger`
entries: the header listed the clients from `FederatedProblem.metas`, built
from a list of scalar budgets, the summary's budget dicts came from
the ledger entries, and the plan and parameter dicts converted every element
with `int()`/`float()`. Each line was one `json.dumps` of an object, a round
line that of `_reference_round`'s. The current writer builds the same records
from the run's client columns and renders each round line as text directly,
so on every run below `write_history` must produce exactly the reference's
bytes.
"""

import itertools
import json
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpflsim.config import ExperimentConfig
from dpflsim.engine import RoundRecord
from dpflsim.harness import _ENCODER, build_problem, round_line, run_single, write_history
from dpflsim.mechanisms import PrivacyBudget, exhaustion_floor


_Client = namedtuple("_Client", "client_id epsilon delta num_samples")


def _reference_json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _reference_plan_to_dict(plan):
    return {
        "counts": [int(c) for c in plan.counts],
        "probabilities": [float(p) for p in plan.probabilities],
        "horizon_rounds": int(plan.horizon_rounds),
        "per_round_selected": int(plan.per_round_selected),
    }


def _reference_params_to_dict(params):
    return {
        "gamma_hat_n": [float(g) for g in params.gamma_hat_n],
        "rho_min_hat": float(params.rho_min_hat),
        "Lambda": float(params.Lambda),
        "phi_n": [float(p) for p in params.phi_n],
        "gamma": float(params.gamma),
        "L_smooth": float(params.L_smooth),
        "mu_convex": float(params.mu_convex),
        "sigma_sq": float(params.sigma_sq),
        "init_dist_sq": float(params.init_dist_sq),
        "omega_a": float(params.omega_a),
        "omega_b": float(params.omega_b),
        "fit_residual": float(params.fit_residual),
        "residual_history": [float(r) for r in params.residual_history],
    }


def _reference_round(record):
    obj = {
        "kind": "round",
        "t": record.t,
        "stage": record.stage,
        "selected": list(record.selected),
        "test_loss": record.test_loss,
        "test_accuracy": record.test_accuracy,
    }
    if record.losses is not None:
        # the encoder sorts the keys, as strings
        obj["losses"] = {str(n): [cur, upd] for n, (cur, upd) in record.losses.items()}
    return obj


def _reference_metas(problem):
    budgets = zip(problem.budgets.epsilon.tolist(), problem.budgets.delta.tolist())
    return [_Client(i, epsilon, delta, samples)
            for i, ((epsilon, delta), samples) in enumerate(zip(budgets,
                                                                problem.num_samples.tolist()))]


def _reference_header(algorithm, settings, model, metas, seed):
    return {
        "kind": "header",
        "format_version": 5,
        "algorithm": algorithm,
        "mechanism": settings.mechanism.value,
        "num_clients": len(metas),
        "clients_per_round": settings.clients_per_round,
        "total_rounds": settings.total_rounds,
        "estimation_rounds": settings.estimation_rounds,
        "model_kind": ("logistic_regression" if model.is_classification
                       else "linear_regression"),
        "feature_dim": model.feature_dim,
        "num_classes": getattr(model, "num_classes", None),
        "model_dim": model.dim,
        "clip_bound": settings.clip_bound,
        "loss_cap": settings.loss_cap,
        "c2": settings.c2,
        "seed": int(seed),
        "clients": [
            {"client_id": m.client_id, "epsilon": m.epsilon, "delta": m.delta,
             "num_samples": m.num_samples} for m in metas
        ],
    }


def _reference_summary(result):
    return {
        "kind": "summary",
        "final_test_loss": result.final_test_loss,
        "final_test_accuracy": result.final_test_accuracy,
        "plan_stage1": _reference_plan_to_dict(result.plan_stage1),
        "plan_stage2": (_reference_plan_to_dict(result.plan_stage2)
                        if result.plan_stage2 else None),
        "estimated_params": (_reference_params_to_dict(result.estimated_params)
                             if result.estimated_params else None),
        "ended_early": result.ended_early,
        "budget": {
            "epsilon_consumed": {str(e.client_id): e.epsilon_consumed
                                 for e in result.ledger},
            "epsilon_remaining": {str(e.client_id): e.epsilon_remaining
                                  for e in result.ledger},
        },
    }


def _reference_history(result, problem) -> bytes:
    header = _reference_header(result.algorithm, result.settings,
                               result.final_state.model_kind, _reference_metas(problem),
                               result.seed)
    records = [header] + [_reference_round(r) for r in result.rounds] + [
        _reference_summary(result)]
    return "".join(json.dumps(obj, sort_keys=True, default=_reference_json_default) + "\n"
                   for obj in records).encode()


def _random_configs():
    rng = np.random.default_rng(9)
    configs = []
    for algorithm in ("dpfl_bcs", "fedsgd", "uniform_dp", "weiavg"):
        for mechanism in ("gaussian", "laplace"):
            for zero_noise in (False, False, False, False, False, True):
                num_clients = int(rng.integers(2, 12))
                total_rounds = int(rng.integers(4, 16))
                delta = {} if mechanism == "gaussian" else dict(delta_min=0.0, delta_max=0.0)
                clients_per_round = int(rng.integers(1, num_clients + 1))
                estimation_rounds = int(rng.integers(2, total_rounds))
                dataset = str(rng.choice(["synthetic_regression", "synthetic_classification"]))
                feature_dim = int(rng.integers(1, 4))
                # the draw of a field since removed, kept so that every later
                # draw, and so every case, stays as it was
                rng.choice([0.0, 0.5])
                configs.append(ExperimentConfig(
                    algorithm=algorithm, mechanism=mechanism, zero_noise=zero_noise,
                    num_clients=num_clients, clients_per_round=clients_per_round,
                    total_rounds=total_rounds, estimation_rounds=estimation_rounds,
                    dataset=dataset, num_classes=3, feature_dim=feature_dim,
                    num_samples=20 * num_clients, test_samples=30,
                    force_uniform_plan=bool(rng.random() < 0.2),
                    epsilon_min=0.2, epsilon_max=float(rng.uniform(0.2, 8.0)),
                    seed=int(rng.integers(0, 10_000)), **delta))
    return configs


def _nearly_spent(problem, margin):
    """Every budget arrives with `margin` times its exhaustion floor left."""
    b = problem.budgets
    problem.budgets = PrivacyBudget(b.epsilon, b.delta, margin * exhaustion_floor(b.epsilon),
                                    b.delta)
    return problem


def _ended_early_cases():
    """(label, config, budget margin) of runs that stop before their last round."""
    base = dict(num_clients=2, clients_per_round=2, total_rounds=10, estimation_rounds=2,
                num_samples=40, test_samples=20, feature_dim=2, seed=3)
    runs = []
    for mechanism in ("gaussian", "laplace"):
        delta = {} if mechanism == "gaussian" else dict(delta_min=0.0, delta_max=0.0)
        for algorithm in ("dpfl_bcs", "uniform_dp"):
            cfg = ExperimentConfig(algorithm=algorithm, mechanism=mechanism, **base, **delta)
            # every budget arrives spent: the first round has no candidate
            runs.append(("spent", cfg, 0.5))
            # budgets last a round or two: stage one spends them all, so
            # dpfl_bcs finds no client to fund stage two and uniform_dp
            # runs out of candidates
            runs.append(("short", cfg, 1.1))
    return runs


def _wide_case():
    """A dpfl_bcs run wide enough that client ids pass 999, so the budget
    objects' string key order interleaves ids of four widths, and that plans a
    stage two, so every per-client column of the summary is written."""
    cfg = ExperimentConfig(algorithm="dpfl_bcs", mechanism="gaussian",
                           dataset="synthetic_regression", num_clients=1200,
                           clients_per_round=30, total_rounds=12, estimation_rounds=4,
                           num_samples=24_000, test_samples=200, feature_dim=3, seed=17)
    return [("wide", cfg, None)]


CASES = ([(f"random{i}", cfg, None) for i, cfg in enumerate(_random_configs())]
         + _ended_early_cases() + _wide_case())


@pytest.mark.parametrize("label, cfg, margin", CASES, ids=[c[0] for c in CASES])
def test_history_bytes_match_reference_writer(tmp_path, label, cfg, margin):
    problem = build_problem(cfg)
    if margin is not None:
        _nearly_spent(problem, margin)
    result = run_single(cfg, problem=problem)
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    assert path.read_bytes() == _reference_history(result, problem)
    if label == "spent":
        assert result.ended_early and not result.rounds
    if label == "short":
        assert result.ended_early and 0 < len(result.rounds) < cfg.total_rounds
        if cfg.algorithm == "dpfl_bcs":
            # stage two went unfunded after a full stage one
            assert result.plan_stage2 is None and result.estimated_params is not None
            assert len(result.rounds) == cfg.estimation_rounds
    if label == "wide":
        assert result.plan_stage2 is not None and result.estimated_params is not None
        assert result.clients.epsilon.size >= 1000


def test_reference_cases_cover_the_run_kinds():
    random = [cfg for label, cfg, _ in CASES if label.startswith("random")]
    assert len(CASES) >= 40
    assert {(c.algorithm, c.mechanism) for c in random} == {
        (a, m) for a in ("dpfl_bcs", "fedsgd", "uniform_dp", "weiavg")
        for m in ("gaussian", "laplace")}
    assert any(c.zero_noise for c in random)
    assert any(c.force_uniform_plan and c.algorithm == "dpfl_bcs" for c in random)


# floats the encoder spells apart from `float.__repr__`, or whose repr
# switches notation, and the smallest subnormal
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5,
                  0.1, 1 / 3, 1.7976931348623157e308]


def test_round_line_is_the_reference_rounds_encoding():
    reports = [
        None, {}, {0: (1.0, 2.0)},
        # ids whose string order (10, 11, 2, 3) differs from their order
        {2: (math.nan, -0.0), 10: (math.inf, -math.inf), 11: (5e-324, 1e16), 3: (0.1, -1.5)}]
    for losses, test_accuracy, test_loss in itertools.product(
            reports, [None, 0.75, math.nan], SPECIAL_FLOATS):
        selected = () if losses is None else tuple(sorted(losses))
        record = RoundRecord(3, 1 if losses is not None else 2, selected, losses, test_loss,
                             test_accuracy)
        assert round_line(record) == _ENCODER.encode(_reference_round(record)), record


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)


@settings(max_examples=300, deadline=None)
@given(t=st.integers(1, 10_000), stage=st.sampled_from([1, 2]),
       losses=st.none() | st.dictionaries(st.integers(0, 20_000), st.tuples(_floats, _floats),
                                          max_size=12),
       test_loss=_floats, test_accuracy=st.none() | _floats)
def test_round_line_matches_the_encoder_on_any_record(t, stage, losses, test_loss,
                                                      test_accuracy):
    selected = tuple(sorted(losses)) if losses else (t % 7, t % 7 + 10)
    record = RoundRecord(t, stage, selected, losses, test_loss, test_accuracy)
    assert round_line(record) == _ENCODER.encode(_reference_round(record))
