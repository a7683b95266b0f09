"""The stage-one log, the parameter fit and the plan solver each have one code
path, shared by the run, the offline replay and `dpflsim plan`."""

import json
import random

import numpy as np
import pytest

from dpflsim import engine, harness
from dpflsim.cli import main
from dpflsim.config import ExperimentConfig
from dpflsim.mechanisms import MechanismKind
from dpflsim.selection import (
    EstimatedParams,
    StageOneLog,
    compute_phi_lambda,
    convergence_coefficients,
    optimal_plan,
)


def _fit_outcome(log, lam, phi, k, z):
    """The fit's parameters as JSON (exact float reprs), or the error it raised."""
    try:
        return json.dumps(engine.fit_stage_one(log, lam, phi, k, z).to_dict(),
                          sort_keys=True)
    except Exception as exc:  # noqa: BLE001 - both logs must fail alike
        return f"{type(exc).__name__}: {exc}"


def test_from_rounds_matches_the_constructor_and_fits_alike():
    rng = np.random.default_rng(2024)
    shuffle = random.Random(7).shuffle
    fitted = 0
    for _ in range(200):
        num_clients = int(rng.integers(1, 12))
        t0 = int(rng.integers(2, 7))
        rounds = []
        for _ in range(t0):
            # some rounds have no responders
            size = int(rng.integers(0, num_clients + 1)) if rng.random() < 0.8 else 0
            ids = rng.choice(num_clients, size=size, replace=False).tolist()
            shuffle(ids)
            rounds.append({n: (float(rng.normal(1.0, 1.0)), float(rng.normal(0.8, 1.0)))
                           for n in ids})
        built = StageOneLog.from_rounds(rounds)
        # the same rounds, each map's keys in another order
        selected, current, updated = [], [], []
        for r in rounds:
            ids = list(r)
            shuffle(ids)
            selected.append(tuple(ids))
            current.append({n: r[n][0] for n in ids})
            updated.append({n: r[n][1] for n in ids})
        direct = StageOneLog(tuple(selected), tuple(current), tuple(updated))
        assert built == direct
        assert built.num_rounds == t0
        phi = rng.uniform(0.01, 5.0, num_clients)
        lam = float(rng.uniform(0.1, 10.0))
        k, z = int(rng.integers(1, num_clients + 1)), int(rng.integers(1, 3))
        outcome = _fit_outcome(built, lam, phi, k, z)
        assert outcome == _fit_outcome(direct, lam, phi, k, z)
        fitted += outcome.startswith("{")
    assert fitted >= 100


def test_run_and_replay_share_one_fit(tmp_path, monkeypatch):
    assert harness.fit_stage_one is engine.fit_stage_one
    calls = []
    fit = engine.fit_stage_one

    def counting(*args, **kwargs):
        calls.append(args[0].num_rounds)
        return fit(*args, **kwargs)

    monkeypatch.setattr(engine, "fit_stage_one", counting)
    monkeypatch.setattr(harness, "fit_stage_one", counting)
    config = ExperimentConfig(algorithm="dpfl_bcs", num_clients=8, clients_per_round=3,
                              total_rounds=12, estimation_rounds=4, num_samples=400,
                              test_samples=80, feature_dim=3, seed=5)
    result = harness.run_single(config)
    assert calls == [4]
    path = tmp_path / "history.jsonl"
    harness.write_history(path, result)
    replayed = harness.estimate_from_history(harness.read_history(path))
    assert calls == [4, 4]
    assert replayed.to_dict() == result.estimated_params.to_dict()


@pytest.mark.parametrize("mechanism", ["gaussian", "laplace"])
def test_plan_gamma_file_writes_the_optimal_plan(tmp_path, capsys, mechanism):
    rng = np.random.default_rng(31)
    num_clients, k, rounds, model_dim, clip_bound, c2 = 40, 4, 25, 6, 1.5, 1.2
    mech = MechanismKind.parse(mechanism)
    ids = rng.permutation(num_clients) + 100
    epsilon = rng.uniform(0.2, 4.0, num_clients)
    delta = (10 ** rng.uniform(-7, -3, num_clients) if mech is MechanismKind.GAUSSIAN
             else np.zeros(num_clients))
    samples = rng.integers(5, 500, num_clients)
    gamma = rng.uniform(0.0, 2.0, num_clients)
    roster = tmp_path / "roster.csv"
    roster.write_text("client_id,epsilon,delta,num_samples\n" + "".join(
        f"{i},{e!r},{d!r},{n}\n" for i, e, d, n in zip(
            ids.tolist(), epsilon.tolist(), delta.tolist(), samples.tolist())))
    gamma_file = tmp_path / "gamma.txt"
    gamma_file.write_text("".join(f"{g!r}\n" for g in gamma.tolist()))

    lam, phi = compute_phi_lambda(mech, model_dim, clip_bound, c2, epsilon, delta, samples)
    fit = dict(gamma=3.0, L_smooth=2.5, mu_convex=0.4)
    omega_a, omega_b = convergence_coefficients(fit["L_smooth"], fit["mu_convex"],
                                                fit["gamma"], lam, k, rounds)
    params = EstimatedParams(gamma_hat_n=gamma, rho_min_hat=1.0, Lambda=lam, phi_n=phi,
                             sigma_sq=0.0, init_dist_sq=1.0, omega_a=omega_a,
                             omega_b=omega_b, **fit)
    expected = optimal_plan(params, rounds, k, mech.noise_exponent).counts.tolist()

    out = tmp_path / "out"
    assert main(["plan", "--roster", str(roster), "--mechanism", mechanism,
                 "--model-dim", str(model_dim), "--clip-bound", repr(clip_bound),
                 "--c2", repr(c2), "--clients-per-round", str(k), "--rounds", str(rounds),
                 "--gamma-file", str(gamma_file), "--omega-a", repr(omega_a),
                 "--omega-b", repr(omega_b), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in (out / "plan.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == ids.tolist()
    assert [int(r[1]) for r in rows] == expected
