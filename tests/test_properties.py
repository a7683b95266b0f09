"""Property tests: the engine's ledger invariants hold on small random
configs, run alone or in a lock-step batch, and the ledger a result builds
on access matches a frozen copy of the list the run used to build."""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpflsim.config import ExperimentConfig
from dpflsim.engine import ALGORITHMS, ClientLedger, run_lockstep_seeds
from dpflsim.harness import build_problem, run_single, settings_from_config


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
    _assert_ledger_invariants(res)
    again = run_single(cfg)
    assert [r.selected for r in again.rounds] == [r.selected for r in res.rounds]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_lockstep_batch_ledger_invariants(cfg):
    # every algorithm on two seeds in one batch: the candidate mask alone
    # keeps a client from training past its plan or budget, and each run's
    # ledger check (which fails the whole batch) is what would catch a breach
    seeds = [cfg.seed, cfg.seed + 1]
    problems = [build_problem(replace(cfg, seed=seed)) for seed in seeds]
    batch = run_lockstep_seeds(problems, seeds, settings_from_config(cfg), ALGORITHMS)
    assert [[res.algorithm for res in results] for results in batch] == [list(ALGORITHMS)] * 2
    for results in batch:
        for res in results:
            _assert_ledger_invariants(res)


def _assert_ledger_invariants(res):
    dp = res.algorithm != "fedsgd"
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


def _reference_ledger(clients, stages, plan1, plan2, stage2_slices, epsilon_at_replan,
                      num_clients):
    """The ledger as a run built it when `RunResult` held the list: `stages`
    holds (realised, planned) per stage that ran."""
    stage1_realised, stage2_realised = ([r.tolist() for r, _ in stages]
                                        + [[0] * num_clients])[:2]
    if plan2 is not None:
        stage2_planned = plan2.counts.tolist()
        stage2_per_round = [e if p else None
                            for e, p in zip(stage2_slices.tolist(), stage2_planned)]
        at_replan = epsilon_at_replan.tolist()
    else:
        stage2_planned = stage2_per_round = at_replan = [None] * num_clients
    return [
        ClientLedger(
            client_id=i, epsilon_total=eps, delta_total=delta,
            epsilon_remaining=eps_rem, delta_remaining=delta_rem,
            epsilon_consumed=consumed, slice_sum=slice_sum,
            participations=real1 + real2, stage1_participations=real1,
            stage2_participations=real2, stage1_planned=plan1_count,
            stage2_planned=plan2_count, stage2_per_round_epsilon=per_round,
            epsilon_remaining_at_replan=replan_eps, exhausted=exhausted,
            trained_after_exhaustion=after)
        for i, (eps, delta, eps_rem, delta_rem, consumed, slice_sum, real1, real2,
                plan1_count, plan2_count, per_round, replan_eps, exhausted, after)
        in enumerate(zip(
            clients.epsilon.tolist(), clients.delta.tolist(),
            clients.epsilon_remaining.tolist(), clients.delta_remaining.tolist(),
            (clients.epsilon - clients.epsilon_remaining).tolist(),
            clients.slice_sum.tolist(), stage1_realised, stage2_realised,
            plan1.counts.tolist(), stage2_planned, stage2_per_round, at_replan,
            clients.exhausted.tolist(), clients.trained_after_exhaustion.tolist()))
    ]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_lazy_ledger_matches_reference(cfg):
    res = run_single(cfg)
    n = cfg.num_clients
    # realised participations per stage, counted from the round records
    realised = {1: np.zeros(n, dtype=int), 2: np.zeros(n, dtype=int)}
    for r in res.rounds:
        np.add.at(realised[r.stage], list(r.selected), 1)
    stages = [(realised[1], None)] + ([(realised[2], None)] if res.plan_stage2 else [])
    expected = _reference_ledger(res.clients, stages, res.plan_stage1, res.plan_stage2,
                                 res.clients.slice_epsilon, res.epsilon_at_replan, n)
    ledger = res.ledger
    assert len(ledger) == len(expected) == n
    for got, want in zip(ledger, expected):
        assert vars(got) == vars(want)
        assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(want).values()]
