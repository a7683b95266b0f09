"""Property test: the engine's ledger invariants hold on small random configs."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpflsim.config import ExperimentConfig
from dpflsim.harness import run_single


@st.composite
def small_configs(draw):
    num_clients = draw(st.integers(2, 7))
    total_rounds = draw(st.integers(3, 12))
    mechanism = draw(st.sampled_from(["gaussian", "laplace"]))
    delta = {} if mechanism == "gaussian" else {"delta_min": 0.0, "delta_max": 0.0}
    eps_min = draw(st.floats(0.05, 2.0))
    return ExperimentConfig(
        algorithm=draw(st.sampled_from(["dpfl_bcs", "uniform_dp", "weiavg", "fedsgd"])),
        mechanism=mechanism,
        num_clients=num_clients,
        clients_per_round=draw(st.integers(1, num_clients)),
        total_rounds=total_rounds,
        estimation_rounds=draw(st.integers(2, total_rounds - 1)),
        epsilon_min=eps_min,
        epsilon_max=eps_min * draw(st.floats(1.0, 20.0)),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        weight_decay=draw(st.sampled_from([0.0, 0.01])),
        aggregate_by_count=draw(st.booleans()),
        dataset=draw(st.sampled_from(["synthetic_regression",
                                      "synthetic_classification"])),
        num_classes=3,
        feature_dim=draw(st.integers(1, 3)),
        num_samples=30 * num_clients,
        test_samples=20,
        seed=draw(st.integers(0, 10_000)),
        **delta)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_ledger_invariants_and_determinism(cfg):
    res = run_single(cfg)
    dp = cfg.algorithm != "fedsgd"
    for e in res.ledger:
        assert e.epsilon_consumed <= e.epsilon_total + 1e-9
        assert abs(e.epsilon_consumed - e.slice_sum) <= 1e-9
        assert not e.trained_after_exhaustion
        if dp:
            assert e.stage1_participations <= e.stage1_planned
            if e.stage2_planned is not None:
                assert e.stage2_participations <= e.stage2_planned
        else:
            assert e.epsilon_consumed == 0.0
    assert np.all(np.isfinite(res.final_state.weights))
    again = run_single(cfg)
    assert [r.selected for r in again.rounds] == [r.selected for r in res.rounds]
