"""The stage-one fit against a frozen reference of its bound evaluation.

`_reference_bound_terms` and `_reference_fit` are copies of the fit as it was
before the client sums moved out of the bound's inner evaluation: every call
recomputes sum gamma_hat_n, sum C_n^{z+1} Phi_n and sum C_n gamma_hat_n. The
current fit computes those sums once per fit, in the same operation order, so
every field of its result must equal the reference's exactly. The line
search `_coordinate_minimize` and `convergence_coefficients` are shared with
the package, so this pins the bound evaluation, not the search.
"""

import math

import numpy as np

import dpflsim.selection as selection
from dpflsim.selection import (
    EstimatedParams,
    StageOneLog,
    _coordinate_minimize,
    convergence_coefficients,
    estimate_problem_params,
    predicted_loss_bound,
)


def _reference_bound_terms(init_dist_sq, gamma, sigma_sq, L, mu, *, counts, gamma_hat_n,
                           rho_min_hat, Lambda, phi_n, elapsed, K, z, num_clients):
    if mu <= 0 or L <= 0:
        return math.inf
    g_tau = gamma + elapsed
    if g_tau <= 0:
        return math.inf
    init_term = L * gamma / (2.0 * g_tau) * init_dist_sq
    skew_term = -3.0 * L * rho_min_hat / (2.0 * mu * num_clients) * float(np.sum(gamma_hat_n))
    sgd_term = 4.0 * L * sigma_sq / (mu * mu * K * g_tau)
    noise_term = (float(np.sum(counts ** (z + 1) * phi_n))
                  * 4.0 * L * Lambda / (K * K * mu * mu * g_tau * elapsed))
    bias_term = (float(np.sum(counts * gamma_hat_n)) / elapsed
                 * (4.0 * L * L / (K * mu * mu * g_tau) + 3.0 * L / (2.0 * K * mu)))
    return init_term + skew_term + sgd_term + noise_term + bias_term


def _reference_fit(observed_loss, log, Lambda, phi_n, gamma_hat_n, rho_min_hat, K, z, *,
                   box_upper=1e6, golden_tol=1e-8, max_sweeps=60, residual_tol=1e-9):
    phi_n = np.asarray(phi_n, dtype=float)
    gamma_hat_n = np.asarray(gamma_hat_n, dtype=float)
    elapsed = log.num_rounds - 1
    num_clients = len(phi_n)
    counts = log.counters(elapsed, num_clients).astype(float)
    point = {"init_dist_sq": 1.0, "gamma": 1.0, "sigma_sq": 0.0,
             "L_smooth": 1.0, "mu_convex": 0.5}

    def residual_at(p):
        value = _reference_bound_terms(
            p["init_dist_sq"], p["gamma"], p["sigma_sq"], p["L_smooth"], p["mu_convex"],
            counts=counts, gamma_hat_n=gamma_hat_n, rho_min_hat=rho_min_hat,
            Lambda=Lambda, phi_n=phi_n, elapsed=elapsed, K=K, z=z,
            num_clients=num_clients)
        return abs(observed_loss - value)

    residual = residual_at(point)
    history = [residual]
    order = ("init_dist_sq", "gamma", "sigma_sq", "L_smooth", "mu_convex")
    if residual > residual_tol:
        for _ in range(max_sweeps):
            improved = False
            for name in order:
                if name == "L_smooth":
                    lo = point["mu_convex"] * (1.0 + 1e-6)
                    hi = max(box_upper, lo)
                elif name == "mu_convex":
                    lo, hi = 0.0, point["L_smooth"] / (1.0 + 1e-6)
                else:
                    lo, hi = 0.0, box_upper

                def f(x, _name=name):
                    trial = dict(point)
                    trial[_name] = x
                    return residual_at(trial)

                x, fx = _coordinate_minimize(f, lo, hi, golden_tol)
                if fx < residual:
                    point[name] = x
                    residual = fx
                    improved = True
            history.append(residual)
            if residual <= residual_tol or not improved:
                break

    omega_a, omega_b = convergence_coefficients(
        point["L_smooth"], point["mu_convex"], point["gamma"], Lambda, K, elapsed)
    return EstimatedParams(
        gamma_hat_n=gamma_hat_n, rho_min_hat=float(rho_min_hat), Lambda=float(Lambda),
        phi_n=phi_n, gamma=point["gamma"], L_smooth=point["L_smooth"],
        mu_convex=point["mu_convex"], sigma_sq=point["sigma_sq"],
        init_dist_sq=point["init_dist_sq"], omega_a=omega_a, omega_b=omega_b,
        fit_residual=residual, residual_history=tuple(history))


def _random_log(rng, num_clients, k, t0):
    """T0 rounds of min(K, N) distinct clients each; clients repeat across rounds."""
    per_round = min(k, num_clients)
    selected, current, updated = [], [], []
    for _ in range(t0):
        ids = sorted(int(i) for i in rng.choice(num_clients, per_round, replace=False))
        selected.append(tuple(ids))
        current.append({n: float(rng.uniform(0.1, 3.0)) for n in ids})
        updated.append({n: float(rng.uniform(0.1, 3.0)) for n in ids})
    return StageOneLog(tuple(selected), tuple(current), tuple(updated))


def _random_instance(rng):
    num_clients = int(rng.integers(1, 61))
    k = int(rng.integers(1, 6))
    t0 = int(rng.integers(2, 9))
    z = int(rng.integers(1, 3))
    log = _random_log(rng, num_clients, k, t0)
    phi = rng.uniform(1e-4, 2.0, num_clients)
    gamma_hat = rng.uniform(0.0, 1.5, num_clients)
    if rng.random() < 0.2:
        gamma_hat[rng.random(num_clients) < 0.5] = 0.0
    rho = float(rng.uniform(0.2, 2.0))
    lam = float(10.0 ** rng.uniform(-1.0, 2.0))
    # targets from far below to far above the neutral start's bound; the
    # unreachable ones (below the bound's floor) and smaller boxes make the
    # descent run several sweeps
    observed = float(rng.choice([-1.0, -1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 3.0))
    box_upper = float(rng.choice([1e6, 1e6, 10.0, 3.0]))
    return (observed, log, lam, phi, gamma_hat, rho, k, z), box_upper


def _assert_same_params(got, want):
    for name in ("rho_min_hat", "Lambda", "gamma", "L_smooth", "mu_convex", "sigma_sq",
                 "init_dist_sq", "omega_a", "omega_b", "fit_residual",
                 "residual_history"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.phi_n, want.phi_n)
    assert np.array_equal(got.gamma_hat_n, want.gamma_hat_n)


def test_fit_is_bit_identical_to_reference(monkeypatch):
    rng = np.random.default_rng(20240815)
    multi_sweep = 0
    for _ in range(300):
        args, box_upper = _random_instance(rng)
        # the package's box is a constant; the smaller boxes are set on it
        monkeypatch.setattr(selection, "_FIT_BOX_UPPER", box_upper)
        got = estimate_problem_params(*args)
        _assert_same_params(got, _reference_fit(*args, box_upper=box_upper))
        multi_sweep += len(got.residual_history) - 1 >= 3
    # the instances exercise the descent, not just its first sweep
    assert multi_sweep >= 15


def test_bound_is_bit_identical_to_reference():
    rng = np.random.default_rng(77)
    for _ in range(500):
        num_clients = int(rng.integers(1, 61))
        z = int(rng.integers(1, 3))
        k = int(rng.integers(1, 6))
        elapsed = int(rng.integers(1, 300))
        counts = rng.integers(0, 40, num_clients).astype(float)
        params = EstimatedParams(
            gamma_hat_n=rng.uniform(0.0, 1.5, num_clients),
            phi_n=rng.uniform(0.0, 2.0, num_clients),
            rho_min_hat=float(rng.uniform(0.2, 2.0)), Lambda=float(rng.uniform(0.1, 100.0)),
            gamma=float(rng.uniform(0.0, 50.0)), L_smooth=float(rng.uniform(0.1, 20.0)),
            mu_convex=float(rng.uniform(0.01, 5.0)), sigma_sq=float(rng.uniform(0.0, 5.0)),
            init_dist_sq=float(rng.uniform(0.0, 100.0)), omega_a=1.0, omega_b=1.0)
        want = _reference_bound_terms(
            params.init_dist_sq, params.gamma, params.sigma_sq, params.L_smooth,
            params.mu_convex, counts=counts, gamma_hat_n=params.gamma_hat_n,
            rho_min_hat=params.rho_min_hat, Lambda=params.Lambda, phi_n=params.phi_n,
            elapsed=elapsed, K=k, z=z, num_clients=num_clients)
        assert predicted_loss_bound(params, counts, elapsed, k, z) == want


def test_fit_computes_client_sums_once(monkeypatch):
    calls = []
    real_sums = selection._client_sums

    def counting_sums(*args):
        calls.append(args)
        return real_sums(*args)

    monkeypatch.setattr(selection, "_client_sums", counting_sums)
    # one client in each of four rounds, and targets below the bound's floor
    log = StageOneLog(((0,),) * 4, ({0: 1.0},) * 4, ({0: 0.5},) * 4)
    for k, z, phi, gamma_hat in ((2, 2, 0.5, 1.0), (1, 1, 0.5, 0.2)):
        calls.clear()
        est = estimate_problem_params(-3.0, log, 8.0, [phi], [gamma_hat], 1.0, K=k, z=z)
        assert len(est.residual_history) - 1 >= 3
        assert len(calls) == 1
