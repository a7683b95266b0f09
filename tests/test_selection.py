"""Selection planning, bound-parameter estimation, and solver oracles."""

import itertools
import math
import re

import numpy as np
import pytest

from dpflsim.errors import EvaluationError, ParameterError
from dpflsim.mechanisms import MechanismKind
from dpflsim.selection import (
    WINSORIZE_PERCENTILE,
    _coordinate_minimize,
    EstimatedParams,
    SelectionPlan,
    StageOneLog,
    approximate_plan,
    compute_phi_lambda,
    convergence_coefficients,
    estimate_gamma_n,
    estimate_problem_params,
    estimate_rho_min,
    largest_remainder_round,
    objective_value,
    observed_stage_loss,
    optimal_plan,
    predicted_loss_bound,
    selection_skew,
    solve_plan,
    water_fill_continuous,
    winsorize_upper,
)

GM = MechanismKind.GAUSSIAN
LM = MechanismKind.LAPLACE


def _params(phi, gamma_hat, **kw):
    defaults = dict(rho_min_hat=1.0, Lambda=8.0, gamma=1.0, L_smooth=1.0,
                    mu_convex=0.5, sigma_sq=0.0, init_dist_sq=1.0,
                    omega_a=0.0, omega_b=0.0)
    defaults.update(kw)
    return EstimatedParams(gamma_hat_n=np.asarray(gamma_hat, dtype=float),
                           phi_n=np.asarray(phi, dtype=float), **defaults)


# ---------------------------------------------------------------- Phi / Lambda

def test_phi_lambda_gaussian_example():
    lam, phi = compute_phi_lambda(GM, 2, 1.0, 1.0, [1.0], [math.exp(-1.0)], [10])
    assert lam == pytest.approx(8.0)
    assert phi[0] == pytest.approx(0.01)


def test_phi_lambda_refuses_a_mechanism_name():
    with pytest.raises(ParameterError, match="^mechanism must be a MechanismKind$"):
        compute_phi_lambda("gaussian", 2, 1.0, 1.0, [1.0], [1e-5], [10])


def test_phi_lambda_laplace_example():
    lam, phi = compute_phi_lambda(LM, 3, 2.0, 1.0, [2.0], [0.0], [5])
    assert lam == pytest.approx(96.0)
    assert phi[0] == pytest.approx(1.0 / (25.0 * 4.0))


def test_phi_lambda_symmetry_and_delta_check():
    lam, phi = compute_phi_lambda(GM, 4, 1.0, 1.0, [2.0, 2.0], [math.exp(-1.0)] * 2,
                                  [10, 10])
    assert phi[0] == phi[1]
    with pytest.raises(ParameterError):
        compute_phi_lambda(GM, 4, 1.0, 1.0, [1.0], [0.0], [10])


@pytest.mark.parametrize("mechanism, clip_bound, c2", [
    (GM, 1e154, 1.0), (GM, 1.0, 1e154), (LM, 1e154, 1.0)])
def test_phi_lambda_refuses_a_lambda_that_overflows(mechanism, clip_bound, c2):
    # each square is finite, but Lambda's product of them with d is not
    delta = [1e-5] if mechanism is GM else [0.0]
    with pytest.raises(ParameterError, match=re.escape(
            f"Lambda overflows at clip_bound = {clip_bound}, c2 = {c2} and model_dim = 6")):
        compute_phi_lambda(mechanism, 6, clip_bound, c2, [1.0], delta, [10])
    lam, _ = compute_phi_lambda(mechanism, 6, clip_bound / 10, c2 / 10, [1.0], delta, [10])
    assert math.isfinite(lam)


# ------------------------------------------------------------ approximate plan

def test_approximate_plan_ratio_three_to_one():
    plan = approximate_plan(np.array([1.0, 3.0]), 8, 1)
    assert plan.counts.tolist() == [6, 2]
    assert plan.probabilities.tolist() == [0.75, 0.25]


def test_approximate_plan_z2_rounding():
    # continuous [7.2, 1.8] -> largest remainder gives [7, 2]
    plan = approximate_plan(np.array([1.0, 16.0]), 9, 2)
    assert plan.counts.tolist() == [7, 2]


def test_approximate_plan_symmetry():
    plan = approximate_plan(np.full(5, 0.3), 20, 1)
    assert plan.counts.tolist() == [4] * 5
    with pytest.raises(ParameterError):
        approximate_plan(np.array([1.0, 0.0]), 8, 1)


def test_budget_only_closed_form_beats_fine_grid():
    # The closed form must win (or tie) against a fine simplex grid on the
    # continuous objective sum(T^{z+1} Phi).
    rng = np.random.default_rng(33)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        z = int(rng.integers(1, 3))
        total = int(rng.integers(4, 13))
        phi = rng.uniform(0.05, 4.0, size=n)
        weights = phi ** (-1.0 / z)
        t_star = total * weights / weights.sum()
        j_star = float(np.sum(t_star ** (z + 1) * phi))
        step = 0.05 * total
        ticks = np.arange(0.0, total + step / 2, step)
        for combo in itertools.product(ticks, repeat=n - 1):
            rest = total - sum(combo)
            if rest < -1e-9:
                continue
            point = np.array(list(combo) + [max(rest, 0.0)])
            j_grid = float(np.sum(point ** (z + 1) * phi))
            assert j_star <= j_grid + 1e-9


# ------------------------------------------------------------ largest remainder

def test_largest_remainder_examples():
    assert largest_remainder_round(np.array([7.2, 1.8]), 9).tolist() == [7, 2]
    assert largest_remainder_round(np.array([2.0, 3.0]), 5).tolist() == [2, 3]
    assert largest_remainder_round(np.array([1.5, 1.5]), 3).tolist() == [2, 1]


def test_largest_remainder_refuses_values_past_int64():
    # a floor at or above 2**63 would wrap negative in the int cast
    for values in ([2.0**63, 0.0], [1e300, 1.0], [math.inf, 1.0], [math.nan, 1.0]):
        with pytest.raises(ParameterError, match=re.escape("below 2**63")):
            largest_remainder_round(np.array(values), 4)
    assert largest_remainder_round(np.array([2.0**62, 0.0]), 2**62).tolist() == [2**62, 0]


def test_largest_remainder_trims_floors_above_the_total():
    # floors summing past the total lose a unit each, smallest fraction first
    # (ties by index), skipping the entries already at zero
    assert largest_remainder_round(np.array([1.2, 2.7, 0.0]), 2).tolist() == [0, 2, 0]
    assert largest_remainder_round(np.array([2.0, 3.0]), 4).tolist() == [1, 3]
    for values, total in (([0.4, 0.6], -1), ([1.5], -1)):
        with pytest.raises(ParameterError, match="cannot round values down"):
            largest_remainder_round(np.array(values), total)


@pytest.mark.parametrize("omega_a, omega_b, why", [
    (1e-320, 1.0, "continuous counts sum to"),
    (1.0, 1e308, "continuous counts sum to"),
    (1e308, 1.0, "bisection bracket"),
])
def test_water_fill_refuses_scales_beyond_float_range(omega_a, omega_b, why):
    # the suite turns RuntimeWarnings into errors, so none may escape either
    phi, gamma = np.array([0.1, 0.01]), np.array([0.5, 1.0])
    message = (f"omega_a={omega_a}, omega_b={omega_b} with phi_n in "
               f"[{phi.min()}, {phi.max()}]: the {why}")
    for z in (1, 2):
        with pytest.raises(ParameterError, match=re.escape(message)):
            water_fill_continuous(phi, gamma, omega_a, omega_b, 4, z)


def test_largest_remainder_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        raw = rng.uniform(0, 10, size=n)
        total = int(round(raw.sum()))
        adjusted = raw * (total / raw.sum()) if raw.sum() > 0 else raw
        out = largest_remainder_round(adjusted, total)
        assert out.sum() == total
        assert np.all(out >= 0)
        assert np.all(np.abs(out - adjusted) < 1.0 + 1e-9)


# ---------------------------------------------------------------- SelectionPlan

def test_selection_plan_validation():
    plan = SelectionPlan(np.array([6, 2]), horizon_rounds=4, per_round_selected=2)
    assert plan.probabilities.tolist() == [0.75, 0.25]
    with pytest.raises(ParameterError):
        SelectionPlan(np.array([6, 1]), horizon_rounds=4, per_round_selected=2)
    for counts, horizon, k, message in (([0], 0, 1, "horizon_rounds must be >= 1"),
                                        ([0], 1, 0, "per_round_selected must be >= 1"),
                                        ([-1, 3], 1, 2, "plan counts must be nonnegative")):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SelectionPlan(np.array(counts), horizon_rounds=horizon, per_round_selected=k)


def test_selection_plan_refuses_counts_that_are_not_whole_numbers():
    for counts in ([3.9, 0.1], [3.5, 0.5], [np.nan, 3.0], [np.inf, 0.0]):
        with pytest.raises(ParameterError, match="plan counts must be whole numbers"):
            SelectionPlan(np.array(counts), horizon_rounds=3, per_round_selected=1)
    plan = SelectionPlan(np.array([3.0, 0.0]), horizon_rounds=3, per_round_selected=1)
    assert plan.counts.dtype == int and plan.counts.tolist() == [3, 0]


def test_plan_probabilities_are_counts_over_k_horizon():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        horizon = int(rng.integers(1, 30))
        z = int(rng.integers(1, 3))
        phi = rng.uniform(0.01, 3.0, size=n)
        gamma = rng.uniform(0.0, 2.0, size=n)
        for plan in (approximate_plan(phi, k * horizon, z, per_round_selected=k),
                     solve_plan(phi, gamma, 0.7, 0.3, horizon, k, z)):
            assert (plan.probabilities == plan.counts / (k * horizon)).all()


def test_stage_one_log_counters_and_validation():
    log = StageOneLog(
        selected=((0, 1), (0,), (2,)),
        loss_current=({0: 1.0, 1: 2.0}, {0: 1.5}, {2: 0.5}),
        loss_updated=({0: 0.9, 1: 1.9}, {0: 1.4}, {2: 0.4}))
    assert log.counters(2, 3).tolist() == [2, 1, 0]
    assert log.counters(3, 3).tolist() == [2, 1, 1]


# ------------------------------------------- loss-gap and skew estimators

def test_gamma_estimate_takes_minimum_gap():
    log = StageOneLog(
        selected=((0,), (0,)),
        loss_current=({0: 1.0}, {0: 1.3}),
        loss_updated=({0: 0.5}, {0: 1.1}))
    got = estimate_gamma_n(log, 1)
    assert got[0] == pytest.approx(0.2)


def test_gamma_estimate_mean_fallback():
    log = StageOneLog(
        selected=((0, 1),),
        loss_current=({0: 1.0, 1: 2.0},),
        loss_updated=({0: 0.8, 1: 1.6},))
    got = estimate_gamma_n(log, 3)
    assert got[0] == pytest.approx(0.2)
    assert got[1] == pytest.approx(0.4)
    assert got[2] == pytest.approx(0.3)


def test_gamma_estimate_zero_gap_and_empty():
    log = StageOneLog(selected=((0,),), loss_current=({0: 1.0},),
                      loss_updated=({0: 1.0},))
    assert estimate_gamma_n(log, 1)[0] == 0.0


def test_rho_estimate_all_equal_losses():
    log = StageOneLog(
        selected=((0,), (0,), (0,)),
        loss_current=({0: 1.0}, {0: 1.0}, {0: 1.0}),
        loss_updated=({0: 1.0}, {0: 1.0}, {0: 1.0}))
    assert estimate_rho_min(log, K=1, T0=3) == pytest.approx(1.0)


def test_rho_estimate_concentrated_counts():
    # C=[2,0]; round-3 losses 3.0 and 0.0 so the global average is 1.5.
    log = StageOneLog(
        selected=((0,), (0,), (0, 1)),
        loss_current=({0: 1.0}, {0: 1.0}, {0: 3.0, 1: 0.0}),
        loss_updated=({0: 1.0}, {0: 1.0}, {0: 2.9, 1: 0.0}))
    assert estimate_rho_min(log, K=1, T0=3) == pytest.approx(2.0)


def test_rho_estimate_uniform_counts_equal_losses():
    log = StageOneLog(
        selected=((0,), (1,), (0, 1)),
        loss_current=({0: 2.0}, {1: 2.0}, {0: 2.0, 1: 2.0}),
        loss_updated=({0: 2.0}, {1: 2.0}, {0: 2.0, 1: 2.0}))
    assert estimate_rho_min(log, K=1, T0=3) == pytest.approx(1.0)


def test_rho_estimate_zero_average_warns(caplog):
    log = StageOneLog(
        selected=((0,), (0,), (0,)),
        loss_current=({0: 1.0}, {0: 1.0}, {0: 0.0}),
        loss_updated=({0: 1.0}, {0: 1.0}, {0: 0.0}))
    with caplog.at_level("WARNING"):
        got = estimate_rho_min(log, K=1, T0=3)
    assert got == 1.0
    assert any("loss" in r.message for r in caplog.records)


def test_observed_stage_loss_is_round_t0_mean():
    log = StageOneLog(
        selected=((0,), (0, 1)),
        loss_current=({0: 9.0}, {0: 3.0, 1: 1.0}),
        loss_updated=({0: 9.0}, {0: 3.0, 1: 1.0}))
    assert observed_stage_loss(log, 2) == pytest.approx(2.0)


# ---------------------------------------------------------------------- bound

def test_bound_hand_evaluated():
    params = _params(phi=[0.0, 0.0], gamma_hat=[0.0, 0.0], gamma=8.0,
                     L_smooth=1.0, mu_convex=1.0, sigma_sq=0.0, init_dist_sq=1.0)
    got = predicted_loss_bound(params, np.array([1, 1]), elapsed_rounds=2, K=1, z=1)
    assert got == pytest.approx(0.4)


def test_bound_vanishes():
    params = _params(phi=[0.0], gamma_hat=[0.0], gamma=8.0, L_smooth=1.0,
                     mu_convex=1.0, sigma_sq=0.0, init_dist_sq=0.0)
    assert predicted_loss_bound(params, np.array([3]), 2, 1, 1) == pytest.approx(0.0)


def test_bound_linear_in_phi():
    base = _params(phi=[0.0, 0.0], gamma_hat=[0.1, 0.2], gamma=2.0,
                   L_smooth=2.0, mu_convex=0.7, sigma_sq=0.3, init_dist_sq=1.5)
    one = _params(phi=[0.4, 0.9], gamma_hat=[0.1, 0.2], gamma=2.0,
                  L_smooth=2.0, mu_convex=0.7, sigma_sq=0.3, init_dist_sq=1.5)
    two = _params(phi=[0.8, 1.8], gamma_hat=[0.1, 0.2], gamma=2.0,
                  L_smooth=2.0, mu_convex=0.7, sigma_sq=0.3, init_dist_sq=1.5)
    counts = np.array([2, 1])
    f0 = predicted_loss_bound(base, counts, 2, 1, 1)
    f1 = predicted_loss_bound(one, counts, 2, 1, 1)
    f2 = predicted_loss_bound(two, counts, 2, 1, 1)
    assert f2 - f0 == pytest.approx(2.0 * (f1 - f0), rel=1e-9)


def test_bound_rejects_degenerate_inputs():
    params = _params(phi=[0.1], gamma_hat=[0.1], mu_convex=0.0)
    with pytest.raises(EvaluationError):
        predicted_loss_bound(params, np.array([1]), 2, 1, 1)
    good = _params(phi=[0.1], gamma_hat=[0.1])
    with pytest.raises(ParameterError):
        predicted_loss_bound(good, np.array([1]), 0, 1, 1)
    with pytest.raises(ParameterError, match="counts length must match"):
        predicted_loss_bound(good, np.array([1, 1]), 2, 1, 1)
    with pytest.raises(EvaluationError, match=re.escape("gamma + elapsed_rounds <= 0")):
        predicted_loss_bound(_params(phi=[0.1], gamma_hat=[0.1], gamma=-5.0),
                             np.array([1]), 2, 1, 1)
    # a negative mu, and an initial term that overflows, both evaluate to inf
    for kw in (dict(mu_convex=-1.0), dict(init_dist_sq=1e308, L_smooth=10.0, gamma=8.0)):
        with pytest.raises(EvaluationError, match="degenerate"):
            predicted_loss_bound(_params(phi=[0.1], gamma_hat=[0.1], **kw),
                                 np.array([1]), 2, 1, 1)


# -------------------------------------------------------------- parameter fit

def _toy_log():
    return StageOneLog(
        selected=((0, 1), (0, 2), (1, 2)),
        loss_current=({0: 1.0, 1: 1.2}, {0: 0.9, 2: 1.1}, {1: 0.8, 2: 1.0}),
        loss_updated=({0: 0.9, 1: 1.1}, {0: 0.85, 2: 1.0}, {1: 0.75, 2: 0.95}))


def test_fit_already_optimal_needs_no_sweeps():
    log = _toy_log()
    phi = np.array([0.01, 0.02, 0.03])
    gamma_hat = np.array([0.1, 0.1, 0.05])
    neutral = _params(phi=phi, gamma_hat=gamma_hat, gamma=1.0, L_smooth=1.0,
                      mu_convex=0.5, sigma_sq=0.0, init_dist_sq=1.0)
    counts = log.counters(2, 3)
    target = predicted_loss_bound(neutral, counts, elapsed_rounds=2, K=2, z=1)
    est = estimate_problem_params(target, log, 8.0, phi, gamma_hat, 1.0, K=2, z=1)
    assert est.fit_residual <= 1e-9
    assert len(est.residual_history) == 1
    assert est.init_dist_sq == 1.0 and est.gamma == 1.0 and est.mu_convex == 0.5


def test_fit_inverts_forward_generated_target():
    log = _toy_log()
    phi = np.array([0.01, 0.02, 0.03])
    gamma_hat = np.array([0.1, 0.1, 0.05])
    truth = _params(phi=phi, gamma_hat=gamma_hat, gamma=3.0, L_smooth=2.0,
                    mu_convex=0.8, sigma_sq=0.2, init_dist_sq=2.5)
    counts = log.counters(2, 3)
    target = predicted_loss_bound(truth, counts, elapsed_rounds=2, K=2, z=1)
    est = estimate_problem_params(target, log, 8.0, phi, gamma_hat, 1.0, K=2, z=1)
    assert est.fit_residual <= 1e-6
    assert est.L_smooth > est.mu_convex >= 0.0


def test_fit_residual_history_non_increasing():
    log = _toy_log()
    phi = np.array([0.5, 0.2, 0.9])
    gamma_hat = np.array([1.0, 0.4, 0.7])
    rng = np.random.default_rng(13)
    for _ in range(5):
        target = float(rng.uniform(0.0, 5.0))
        est = estimate_problem_params(target, log, 8.0, phi, gamma_hat, 1.2, K=2, z=1)
        hist = np.array(est.residual_history)
        assert np.all(np.diff(hist) <= 1e-12)
        assert est.fit_residual == pytest.approx(hist[-1])


# ---------------------------------------------------------------- plan solver

def _omega_one_params(phi, gamma_hat):
    # K=1, horizon=4, L=2, mu=1, gamma=12, Lambda=8 gives omega_a = omega_b = 1.
    return EstimatedParams(
        gamma_hat_n=np.asarray(gamma_hat, dtype=float),
        phi_n=np.asarray(phi, dtype=float), rho_min_hat=1.0, Lambda=8.0,
        gamma=12.0, L_smooth=2.0, mu_convex=1.0, sigma_sq=0.0, init_dist_sq=1.0,
        omega_a=1.0, omega_b=1.0)


def test_convergence_coefficients_identity_instance():
    omega_a, omega_b = convergence_coefficients(L=2.0, mu=1.0, gamma=12.0,
                                                Lambda=8.0, K=1, horizon=4)
    assert omega_a == pytest.approx(1.0)
    assert omega_b == pytest.approx(1.0)


def test_optimal_plan_concentrates_on_cheap_client():
    params = _omega_one_params(phi=[1.0, 1.0], gamma_hat=[0.0, 10.0])
    plan = optimal_plan(params, horizon_rounds=4, K=1, z=1)
    assert plan.counts.tolist() == [4, 0]
    j_best = objective_value(plan.counts, params.phi_n, params.gamma_hat_n,
                             1.0, 1.0, 1)
    assert j_best == pytest.approx(16.0)
    j_alt = objective_value(np.array([3, 1]), params.phi_n, params.gamma_hat_n,
                            1.0, 1.0, 1)
    assert j_alt == pytest.approx(20.0)
    # exhaustive check over integer compositions of 4
    for a in range(5):
        j = objective_value(np.array([a, 4 - a]), params.phi_n,
                            params.gamma_hat_n, 1.0, 1.0, 1)
        assert j_best <= j + 1e-12


def test_optimal_plan_zero_gaps_match_approximate_plan():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        phi = rng.uniform(0.01, 2.0, size=n)
        z = int(rng.integers(1, 3))
        params = _params(phi=phi, gamma_hat=np.zeros(n), gamma=12.0,
                         L_smooth=2.0, mu_convex=1.0, omega_a=1.0, omega_b=1.0)
        plan = optimal_plan(params, horizon_rounds=4, K=2, z=z)
        approx = approximate_plan(phi, 8, z, per_round_selected=2)
        assert plan.counts.tolist() == approx.counts.tolist()


def test_optimal_plan_symmetry_and_errors():
    params = _omega_one_params(phi=[0.7, 0.7, 0.7], gamma_hat=[0.3, 0.3, 0.3])
    plan = optimal_plan(params, horizon_rounds=3, K=2, z=1)
    assert plan.counts.tolist() == [2, 2, 2]
    with pytest.raises(ParameterError):
        optimal_plan(params, horizon_rounds=0, K=2, z=1)


def test_water_fill_kkt_stationarity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        z = int(rng.integers(1, 3))
        phi = rng.uniform(0.01, 3.0, size=n)
        gamma = rng.uniform(0.0, 5.0, size=n) * rng.integers(0, 2, size=n)
        omega_a = float(rng.uniform(0.05, 2.0))
        omega_b = float(rng.uniform(0.0, 2.0))
        total = int(rng.integers(2, 30))
        t_cont, lam = water_fill_continuous(phi, gamma, omega_a, omega_b, total, z)
        assert t_cont.sum() == pytest.approx(total, rel=1e-9)
        for tn, p, g in zip(t_cont, phi, gamma):
            if tn > 1e-12:
                grad = (z + 1) * omega_a * p * tn**z + omega_b * g
                assert abs(grad - lam) <= 1e-6 * abs(lam) + 1e-12
            else:
                assert omega_b * g >= lam - 1e-6 * abs(lam) - 1e-12


def test_water_fill_phi_monotonicity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        z = int(rng.integers(1, 3))
        phi = rng.uniform(0.05, 2.0, size=n)
        gamma = rng.uniform(0.0, 2.0, size=n)
        t_base, _ = water_fill_continuous(phi, gamma, 1.0, 1.0, 12, z)
        bumped = phi.copy()
        bumped[0] *= 1.7
        t_bump, _ = water_fill_continuous(bumped, gamma, 1.0, 1.0, 12, z)
        assert t_bump[0] <= t_base[0] + 1e-9


def test_objective_examples_and_convexity():
    assert objective_value(np.array([6, 2]), np.array([1.0, 3.0]),
                           np.zeros(2), 1.0, 0.0, 1) == pytest.approx(48.0)
    assert objective_value(np.zeros(3), np.ones(3), np.ones(3), 1.0, 1.0, 2) == 0.0
    lin = objective_value(np.array([2, 5]), np.ones(2), np.array([1.0, 2.0]),
                          0.0, 3.0, 1)
    assert lin == pytest.approx(3.0 * (2 * 1 + 5 * 2))
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        z = int(rng.integers(1, 3))
        phi = rng.uniform(0.01, 3.0, size=n)
        gam = rng.uniform(0.0, 3.0, size=n)
        oa, ob = rng.uniform(0.01, 2.0), rng.uniform(0.0, 2.0)
        t1 = rng.uniform(0, 10, size=n)
        t2 = rng.uniform(0, 10, size=n)
        lam = float(rng.uniform(0, 1))
        mix = objective_value(lam * t1 + (1 - lam) * t2, phi, gam, oa, ob, z)
        bound = (lam * objective_value(t1, phi, gam, oa, ob, z)
                 + (1 - lam) * objective_value(t2, phi, gam, oa, ob, z))
        assert mix <= bound + 1e-9
    with pytest.raises(ParameterError, match="length mismatch"):
        objective_value(np.ones(2), np.ones(3), np.ones(2), 1.0, 1.0, 1)


# -------------------------------------------------------------- selection skew

def test_selection_skew_values():
    assert selection_skew(np.full(4, 0.25), np.array([1.0, 2.0, 3.0, 4.0]),
                          np.zeros(4), 2.5) == pytest.approx(1.0)
    assert selection_skew(np.array([1.0, 0.0]), np.array([2.0, 0.0]),
                          np.zeros(2), 1.0) == pytest.approx(2.0)
    with pytest.raises(EvaluationError):
        selection_skew(np.array([0.5, 0.5]), np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ParameterError, match="length mismatch"):
        selection_skew(np.ones(2), np.ones(2), np.ones(3), 1.0)


@pytest.mark.parametrize("lo, hi", [(2.0, 2.0), (3.0, 1.0)])
def test_coordinate_minimize_on_an_empty_box_evaluates_its_low_end(lo, hi):
    assert _coordinate_minimize(lambda x: x * x + 1.0, lo, hi, 1e-9) == (lo, lo * lo + 1.0)


def test_winsorize_upper_caps_only_top_tail():
    # one outlier above the 95th percentile of 20 values, which lies between
    # the two largest
    values = np.append(np.arange(1.0, 20.0), 1000.0)
    capped = winsorize_upper(values)
    assert capped[-1] == np.percentile(values, WINSORIZE_PERCENTILE) < 1000.0
    assert np.array_equal(capped[:-1], values[:-1])
