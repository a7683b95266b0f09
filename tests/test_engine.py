"""Federated loop behavior: local steps, selection, stages, and budgets."""

import itertools
import math

import numpy as np
import pytest

import dpflsim.engine as engine
from dpflsim.data import Dataset
from dpflsim.engine import (
    ClientArrays,
    FederatedProblem,
    LearningRateSchedule,
    RunSettings,
    _check_ledger,
    _stream,
    aggregate,
    client_round,
    local_gradient,
    local_loss,
    run_baseline,
    run_dpfl_bcs,
    sample_selection,
)
from dpflsim.errors import ParameterError, StateError
from dpflsim.mechanisms import (
    ClipConfig,
    MechanismKind,
    PrivacyBudget,
    _row_norms,
    gaussian_sigma,
    gradient_sensitivity,
)
from dpflsim.models import LinearRegression, LogisticRegression, ModelState
from dpflsim.selection import objective_value

GM = MechanismKind.GAUSSIAN
LM = MechanismKind.LAPLACE


# ------------------------------------------------------------------- schedules

def test_learning_rate_schedules():
    const = LearningRateSchedule("constant", eta0=0.3)
    assert const.rate(1) == const.rate(100) == 0.3
    exp = LearningRateSchedule("experiment_decay", eta0=0.1, decay_horizon=10.0)
    assert exp.rate(10) == pytest.approx(0.05)
    theory = LearningRateSchedule("theory_decay", mu=0.5, gamma=3.0)
    assert theory.rate(1) == pytest.approx(2.0 / (0.5 * 4.0))
    for sched in (const, exp, theory):
        rates = [sched.rate(t) for t in range(1, 50)]
        assert all(r > 0 for r in rates)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
    with pytest.raises(ParameterError):
        LearningRateSchedule("theory_decay", mu=0.0)
    with pytest.raises(ParameterError):
        LearningRateSchedule("warm_restart")


# ---------------------------------------------------------------- local pieces

def _regression_state(feature_dim=1):
    model = LinearRegression(feature_dim)
    return ModelState(model.init_weights(), model)


def test_local_loss_cap_forces_mean():
    # residuals 1 and 10 at zero weights -> per-sample losses {1, 100}
    data = Dataset(np.zeros((2, 1)), np.array([-1.0, 10.0]))
    state = _regression_state()
    assert local_loss(state, data, loss_cap=10.0) == pytest.approx(5.5)
    assert local_loss(state, data, loss_cap=1000.0) == pytest.approx(50.5)


def test_local_loss_uniform_classifier():
    model = LogisticRegression(2, 10)
    state = ModelState(model.init_weights(), model)
    data = Dataset(np.random.default_rng(0).normal(size=(8, 2)),
                   np.arange(8) % 10)
    assert local_loss(state, data, loss_cap=math.log(10.0) + 1) == pytest.approx(math.log(10.0))


def test_local_gradient_zero_rate_and_fd():
    data = Dataset(np.array([[2.0]]), np.array([3.0]))
    state = _regression_state()
    clip = ClipConfig(100.0, "l2")
    assert np.array_equal(local_gradient(state, data, 0.0, clip), np.zeros(2))
    # single sample inside the ball: g = eta * grad
    g = local_gradient(state, data, 0.5, clip)
    # d/dw of (2w + b - 3)^2 at 0 is (2*(-3)*2, 2*(-3)) = (-12, -6)
    assert np.allclose(g, 0.5 * np.array([-12.0, -6.0]), rtol=1e-12)


def test_local_gradient_boundary_norm():
    # identical feature rows give parallel per-sample gradients, both far
    # outside the ball, so the clipped mean sits exactly on the boundary
    data = Dataset(np.array([[1.0], [1.0]]), np.array([100.0, 200.0]))
    state = _regression_state()
    bound = 0.7
    g = local_gradient(state, data, 0.2, ClipConfig(bound, "l2"))
    assert np.linalg.norm(g) == pytest.approx(0.2 * bound, rel=1e-9)


# ---------------------------------------------------------------- client round

# Stage parameters of the one-client rounds below: clip bound 1 (L2), loss
# cap 10, eta 0.5, a fresh (1, 1e-3) budget over 4 planned rounds, so the
# slices are (0.25, 2.5e-4).
ETA = 0.5
PLANNED = 4


def _one_client(data, budget=None, **settings_kw):
    budget = budget if budget is not None else PrivacyBudget.fresh(1.0, 1e-3)
    clients = ClientArrays([data], [budget])
    clients.install([PLANNED], dp=True)
    return clients, _settings(clip_bound=1.0, loss_cap=10.0, c2=1.0, **settings_kw)


def test_client_round_zero_noise_exact():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))
    state = _regression_state()
    clients, settings = _one_client(data)
    out = client_round(clients, [0], state, ETA, np.random.default_rng(0), settings,
                       report_losses=True, noise_enabled=False)
    g = local_gradient(state, data, ETA, settings.clip)
    assert out.ids.tolist() == [0]
    assert np.array_equal(out.gradients[0], g)
    assert out.losses[0, 0] == local_loss(state, data, 10.0)
    assert out.losses[0, 1] == local_loss(state.replaced(state.weights - g), data, 10.0)
    assert clients.epsilon_remaining[0] == 1.0 and clients.delta_remaining[0] == 1e-3
    assert clients.slice_sum[0] == 0.0
    assert clients.stage_count[0] == 1


def test_client_round_loss_distortion_rule():
    # F_hat must equal (eta * F + z) / eta with z the (d)-th noise coordinate.
    data = Dataset(np.array([[0.0]]), np.array([-math.sqrt(2.0)]))
    state = _regression_state()
    clients, settings = _one_client(data)
    out = client_round(clients, [0], state, ETA, np.random.default_rng(77), settings,
                       report_losses=True)
    f = local_loss(state, data, 10.0)  # = 2.0
    assert f == pytest.approx(2.0)
    # replay the identical stream to recover the drawn noise
    sens = gradient_sensitivity(GM, ETA, 1.0, 1, 10.0, include_loss_terms=True)
    scale = gaussian_sigma(sens, 1.0, 1e-3, PLANNED, 1.0)
    noise = np.random.default_rng(77).normal(0.0, scale, size=4)
    g = local_gradient(state, data, ETA, settings.clip)
    assert np.array_equal(out.gradients[0], g + noise[:2])
    assert out.losses[0, 0] == (ETA * f + noise[2]) / ETA
    f_updated = local_loss(state.replaced(state.weights - g), data, 10.0)
    assert out.losses[0, 1] == (ETA * f_updated + noise[3]) / ETA
    # one slice charged
    assert clients.epsilon_remaining[0] == 1.0 - 0.25
    assert clients.slice_sum[0] == 0.25


def test_client_round_distortion_hand_example():
    # eta=0.5, F=2.0, z=0.1 -> (1.0 + 0.1) / 0.5 = 2.2
    assert (0.5 * 2.0 + 0.1) / 0.5 == pytest.approx(2.2)


def test_client_round_refuses_when_exhausted():
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    state = _regression_state()
    spent = PrivacyBudget(1.0, 1e-3, 0.0, 0.0)
    clients, settings = _one_client(data, spent)
    out = client_round(clients, [0], state, ETA, np.random.default_rng(0), settings,
                       report_losses=False)
    assert out.ids.tolist() == [] and out.gradients.shape == (0, 2)
    assert clients.stage_count[0] == 0
    # diagnostics mode ignores the ledger
    out = client_round(clients, [0], state, ETA, np.random.default_rng(0), settings,
                       report_losses=False, noise_enabled=False)
    assert out.ids.tolist() == [0]
    assert np.array_equal(out.gradients[0], local_gradient(state, data, ETA, settings.clip))


def test_budget_arriving_exhausted_is_never_eligible():
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    clients = ClientArrays([data] * 3, [PrivacyBudget.fresh(1.0, 1e-3),
                                        PrivacyBudget(1.0, 1e-3, 0.0, 0.0),
                                        PrivacyBudget.fresh(2.0, 1e-3)])
    clients.install([4, 4, 4], dp=True)
    assert clients.exhausted.tolist() == [False, True, False]
    assert clients.eligible(dp=True).tolist() == [0, 2]
    assert clients.eligible(dp=False).tolist() == [0, 1, 2]
    assert clients.slice_epsilon.tolist() == [0.25, 0.0, 0.5]
    assert clients.slice_delta[1] == 0.0 and clients.stage_epsilon[1] == 0.0
    # in a run such a client is never selected, so it never refuses
    problem = _problem(num_clients=4)
    problem.budgets[1] = PrivacyBudget(1.0, 1e-4, 0.0, 0.0)
    res = run_baseline("uniform_dp", problem, _settings(total_rounds=12), seed=4)
    assert res.rounds and all(1 not in r.selected for r in res.rounds)
    assert res.ledger[1].participations == 0 and res.ledger[1].exhausted


def test_client_round_monte_carlo_unbiased():
    # n copies of one client in a single batch, noised from one generator
    data = Dataset(np.array([[1.0], [2.0]]), np.array([0.5, -0.5]))
    state = _regression_state()
    n = 10**4
    clients = ClientArrays([data] * n, [PrivacyBudget.fresh(1.0, 1e-3)] * n)
    clients.install(np.full(n, PLANNED), dp=True)
    settings = _settings(clip_bound=1.0, loss_cap=10.0, c2=1.0)
    out = client_round(clients, np.arange(n), state, ETA, np.random.default_rng(1000),
                       settings, report_losses=False)
    g = local_gradient(state, data, ETA, settings.clip)
    scale = gaussian_sigma(gradient_sensitivity(GM, ETA, 1.0, 2), 1.0, 1e-3, PLANNED)
    mean = out.gradients.mean(axis=0)
    tol = 3.0 * scale / math.sqrt(n)
    assert np.all(np.abs(mean - g) <= tol)
    assert np.all(clients.epsilon_remaining == 0.75)


def _batch_problem(mechanism):
    rng = np.random.default_rng(31)
    model = LogisticRegression(3, 4)
    sizes = [1, 7, 3, 12, 5, 2]
    data = [Dataset(rng.normal(size=(m, 3)), rng.integers(0, 4, size=m)) for m in sizes]
    delta = 1e-4 if mechanism is GM else 0.0
    budgets = [PrivacyBudget.fresh(e, delta) for e in (0.4, 1.0, 2.5, 0.7, 3.0, 1.5)]
    state = ModelState(rng.normal(scale=0.5, size=model.dim), model)
    return data, budgets, state


@pytest.mark.parametrize("mechanism", [GM, LM])
@pytest.mark.parametrize("report_losses", [False, True])
@pytest.mark.parametrize("momentum", [0.0, 0.8])
def test_client_round_batch_equals_single_rounds(mechanism, report_losses, momentum):
    data, budgets, state = _batch_problem(mechanism)
    settings = _settings(mechanism=mechanism, clip_bound=0.8, loss_cap=2.0,
                         momentum=momentum, weight_decay=0.01 if momentum else 0.0)
    plan = [3, 2, 4, 1, 5, 2]
    ids = [0, 1, 3, 4, 5]
    dim = state.model_kind.dim

    def fresh():
        clients = ClientArrays(data, budgets)
        clients.install(plan, dp=True)
        return clients

    batch_clients = fresh()
    single_clients = fresh()
    for t, eta in enumerate([0.3, 0.2], start=1):
        velocity_before = (None if single_clients.velocity is None
                           else single_clients.velocity.copy())
        batch = client_round(batch_clients, ids, state, eta, _stream(9, 2, t), settings,
                             report_losses)
        # the one-responder rounds draw in turn from one generator keyed like
        # the batch's, so they see the batch's noise rows in order
        rng = _stream(9, 2, t)
        singles = [client_round(single_clients, [n], state, eta, rng, settings,
                                report_losses) for n in ids]
        # client 3 plans one round, so it refuses in round two
        responders = [n for n in ids if t == 1 or n != 3]
        assert batch.ids.tolist() == responders
        assert [s.ids.tolist() for s in singles] == [[n] if n in responders else []
                                                     for n in ids]
        singles = [s for s in singles if len(s.ids)]
        for i, single in enumerate(singles):
            np.testing.assert_allclose(batch.gradients[i], single.gradients[0],
                                       rtol=1e-12, atol=0)
            if report_losses:
                np.testing.assert_allclose(batch.losses[i], single.losses[0],
                                           rtol=1e-12, atol=0)
            else:
                assert batch.losses is None and single.losses is None
        # identical noise draws: each responder's step plus its replayed noise
        sens = gradient_sensitivity(mechanism, eta, 0.8,
                                    batch_clients.num_samples[responders], 2.0,
                                    report_losses)
        rng = _stream(9, 2, t)
        for i, n in enumerate(responders):
            width = dim + 2 if report_losses else dim
            if mechanism is GM:
                scale = gaussian_sigma(sens[i], budgets[n].epsilon, budgets[n].delta,
                                       plan[n], 1.0)
                noise = rng.normal(0.0, scale, size=width)
            else:
                scale = plan[n] * sens[i] / budgets[n].epsilon
                noise = rng.laplace(0.0, scale, size=width)
            if momentum:
                # the release is eta times the velocity, which holds the noise
                np.testing.assert_allclose(batch.gradients[i],
                                           eta * single_clients.velocity[n],
                                           rtol=1e-12, atol=0)
                previous = 0.0 if velocity_before is None else velocity_before[n]
                base = (local_gradient(state, data[n], 1.0, settings.clip)
                        + settings.weight_decay * state.weights)
                step = eta * (momentum * previous + base)
            else:
                step = local_gradient(state, data[n], eta, settings.clip)
            np.testing.assert_allclose(batch.gradients[i], step + noise[:dim],
                                       rtol=1e-12, atol=0)
    for name in ("epsilon_remaining", "delta_remaining", "slice_sum", "stage_count",
                 "exhausted"):
        assert np.array_equal(getattr(batch_clients, name), getattr(single_clients, name))
    if momentum:
        np.testing.assert_allclose(batch_clients.velocity, single_clients.velocity,
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("classification", [False, True])
@pytest.mark.parametrize("mechanism", [GM, LM])
@pytest.mark.parametrize("bound_quantile", [0.0, 0.5, 1.0])
def test_client_round_matches_local_gradient(classification, mechanism, bound_quantile):
    # zero-noise multi-responder rounds against the materialized per-client
    # path; the bound clips every row, about half of them, or none
    rng = np.random.default_rng(41)
    sizes = [1, 25, 4, 13, 2, 9, 17]
    if classification:
        model = LogisticRegression(4, 5)
        data = [Dataset(rng.normal(size=(m, 4)), rng.integers(0, 5, size=m)) for m in sizes]
    else:
        model = LinearRegression(4)
        data = [Dataset(rng.normal(size=(m, 4)), rng.normal(scale=3.0, size=m))
                for m in sizes]
    state = ModelState(rng.normal(size=model.dim), model)
    features = np.concatenate([d.features for d in data])
    targets = np.concatenate([d.targets for d in data])
    norms = _row_norms(model.per_sample_gradients(state.weights, features, targets),
                       mechanism.clip_norm)
    bound = np.quantile(norms, bound_quantile) * (1.01 if bound_quantile == 1.0 else 0.99)
    delta = 1e-4 if mechanism is GM else 0.0
    clients = ClientArrays(data, [PrivacyBudget.fresh(1.0, delta)] * len(data))
    clients.install([3] * len(data), dp=True)
    settings = _settings(mechanism=mechanism, clip_bound=bound)
    eta = 0.3
    out = client_round(clients, np.arange(len(data)), state, eta, np.random.default_rng(0),
                       settings, report_losses=False, noise_enabled=False)
    assert out.ids.tolist() == list(range(len(data)))
    for i, d in enumerate(data):
        expected = local_gradient(state, d, eta, settings.clip)
        assert np.all(np.abs(out.gradients[i] - expected) <= 1e-13 * eta * bound)


def test_runs_never_materialize_per_sample_gradients(monkeypatch):
    # the round path clips from rank-one factors: neither the materialized
    # per-sample gradients nor the matrix clip may come back into a run
    calls = {"gradients": 0, "clip": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(engine, "clip_gradient_matrix",
                        counting("clip", engine.clip_gradient_matrix))
    for kind in (LinearRegression, LogisticRegression):
        monkeypatch.setattr(kind, "per_sample_gradients",
                            counting("gradients", kind.per_sample_gradients))
    problem = _problem(num_clients=6)
    settings = _settings(clients_per_round=3, total_rounds=10, estimation_rounds=3)
    for run in (lambda: run_baseline("uniform_dp", problem, settings, seed=3),
                lambda: run_dpfl_bcs(problem, settings, seed=3)):
        res = run()
        assert sum(len(r.selected) for r in res.rounds) > 0
    assert calls == {"gradients": 0, "clip": 0}
    # the counters do count the materialized reference path
    local_gradient(ModelState(problem.model.init_weights(), problem.model),
                   problem.client_data[0], 0.1, settings.clip)
    assert calls == {"gradients": 1, "clip": 1}


def test_momentum_weight_decay_run_matches_per_client_velocity():
    # Reference loop: every selected client keeps its own velocity of clipped
    # mean gradients plus weight decay, and releases eta_t times it.
    problem = _problem(num_clients=4)
    settings = _settings(momentum=0.9, weight_decay=0.05, dp_enabled=False,
                         record_weights=True)
    res = run_baseline("uniform_dp", problem, settings, seed=4)
    k = settings.clients_per_round
    probs = np.full(4, 0.25)
    w = problem.model.init_weights()
    velocity = {}
    for t in range(1, settings.total_rounds + 1):
        selected = sample_selection(probs, range(4), k, _stream(4, 1, t))
        assert list(res.rounds[t - 1].selected) == selected
        eta = settings.schedule.rate(t)
        state = ModelState(w, problem.model)
        steps = []
        for n in selected:
            base = local_gradient(state, problem.client_data[n], 1.0, settings.clip)
            base = base + settings.weight_decay * w
            velocity[n] = settings.momentum * velocity.get(n, 0.0) + base
            steps.append(eta * velocity[n])
        w = w - aggregate(steps, k)
        np.testing.assert_allclose(res.weight_trajectory[t], w, rtol=1e-12, atol=1e-15)


def test_momentum_velocity_is_post_processing_of_releases(monkeypatch):
    # With DP on, every release is eta_t times the stored velocity, and the
    # velocity moves only by this round's noised step: release minus
    # eta_t * m * v_prev minus eta_t * base is the round's noise, replayed
    # responder by responder from the (seed, 2, t) stream.
    problem = _problem(num_clients=4)
    settings = _settings(momentum=0.9, weight_decay=0.05, total_rounds=8)
    seed = 6
    real_round = engine.client_round
    checked = []

    def client_round_checked(clients, ids, model, eta, rng, round_settings, report_losses,
                             noise_enabled=True):
        t = len(checked) + 1
        previous = (np.zeros((len(clients.data), model.model_kind.dim))
                    if clients.velocity is None else clients.velocity.copy())
        release = real_round(clients, ids, model, eta, rng, round_settings, report_losses,
                             noise_enabled)
        ids = release.ids
        np.testing.assert_allclose(release.gradients, eta * clients.velocity[ids],
                                   rtol=1e-12, atol=0)
        sens = gradient_sensitivity(GM, eta, settings.clip_bound, clients.num_samples[ids])
        scale = gaussian_sigma(sens, clients.stage_epsilon[ids], clients.stage_delta[ids],
                               clients.planned[ids], settings.c2)
        noise_rng = _stream(seed, 2, t)
        for i, n in enumerate(ids):
            base = (local_gradient(model, clients.data[n], 1.0, settings.clip)
                    + settings.weight_decay * model.weights)
            noise = noise_rng.normal(0.0, scale[i], size=model.model_kind.dim)
            np.testing.assert_allclose(
                release.gradients[i] - eta * settings.momentum * previous[n] - eta * base,
                noise, rtol=1e-9, atol=1e-12)
        checked.append(len(ids))
        return release

    monkeypatch.setattr(engine, "client_round", client_round_checked)
    res = run_baseline("uniform_dp", problem, settings, seed=seed)
    assert len(checked) == len(res.rounds) == settings.total_rounds
    assert sum(checked) > settings.total_rounds  # some clients release twice or more


def test_randomness_is_drawn_per_round_not_per_responder(monkeypatch):
    # at most one selection and one noise generator per round, and one noise
    # draw call for all responders together
    calls = {"stream": 0, "noise": 0}
    real_stream, real_noise = engine._stream, engine.sample_noise

    def counting_stream(*key):
        calls["stream"] += 1
        return real_stream(*key)

    def counting_noise(*args):
        calls["noise"] += 1
        return real_noise(*args)

    monkeypatch.setattr(engine, "_stream", counting_stream)
    monkeypatch.setattr(engine, "sample_noise", counting_noise)
    problem = _problem(num_clients=6)
    settings = _settings(clients_per_round=3, total_rounds=10, estimation_rounds=3)
    for run in (lambda: run_baseline("uniform_dp", problem, settings, seed=3),
                lambda: run_dpfl_bcs(problem, settings, seed=3)):
        calls.update(stream=0, noise=0)
        res = run()
        rounds = len(res.rounds)
        assert not res.ended_early and rounds == settings.total_rounds
        assert 0 < calls["noise"] <= rounds
        assert calls["stream"] <= 2 * rounds


def test_one_budget_is_built_per_dp_round(monkeypatch):
    # the engine builds one array budget per round, for the deduction; the
    # refusal test reads the exhausted flags instead of building another
    built = []
    real_budget = engine.PrivacyBudget

    def counting_budget(*args):
        built.append(args)
        return real_budget(*args)

    monkeypatch.setattr(engine, "PrivacyBudget", counting_budget)
    problem = _problem(num_clients=6)
    settings = _settings(clients_per_round=3, total_rounds=10, estimation_rounds=3)
    for run in (lambda: run_baseline("uniform_dp", problem, settings, seed=3),
                lambda: run_dpfl_bcs(problem, settings, seed=3)):
        built.clear()
        res = run()
        assert not res.ended_early and len(res.rounds) == settings.total_rounds
        assert len(built) == len(res.rounds)


# ------------------------------------------------------------------ aggregation

def test_aggregate_examples():
    got = aggregate([np.array([1.0, 1.0]), np.array([3.0, 3.0])], 2)
    assert np.array_equal(got, np.array([2.0, 2.0]))
    assert np.array_equal(aggregate([np.array([5.0])], 1), np.array([5.0]))
    assert np.array_equal(aggregate([np.zeros(3), np.zeros(3)], 2), np.zeros(3))
    # nominal-K divisor shrinks the update when responders are missing
    short = aggregate([np.array([3.0, 3.0])], 2)
    assert np.array_equal(short, np.array([1.5, 1.5]))
    by_count = aggregate([np.array([3.0, 3.0])], 2, divide_by_count=True)
    assert np.array_equal(by_count, np.array([3.0, 3.0]))
    with pytest.raises(ParameterError):
        aggregate([], 2)


def test_aggregate_stacked_array_matches_list():
    grads = np.random.default_rng(3).normal(size=(5, 4))
    assert np.array_equal(aggregate(grads, 7), aggregate(list(grads), 7))
    assert np.array_equal(aggregate(grads, 7, divide_by_count=True),
                          aggregate(list(grads), 7, divide_by_count=True))
    with pytest.raises(ParameterError):
        aggregate(np.zeros((0, 4)), 2)


# -------------------------------------------------------------------- sampling

def test_sample_selection_degenerate_weight():
    p = np.array([1.0, 0.0, 0.0])
    for seed in range(20):
        assert sample_selection(p, [0, 1, 2], 1, np.random.default_rng(seed)) == [0]


def test_sample_selection_small_candidate_set():
    p = np.full(6, 1 / 6)
    assert sample_selection(p, [4, 2], 5, np.random.default_rng(0)) == [2, 4]
    assert sample_selection(p, [], 3, np.random.default_rng(0)) == []


def test_sample_selection_determinism_and_distinctness():
    p = np.array([0.4, 0.3, 0.2, 0.05, 0.05])
    a = sample_selection(p, range(5), 3, np.random.default_rng(11))
    b = sample_selection(p, range(5), 3, np.random.default_rng(11))
    assert a == b
    assert len(set(a)) == 3


def _successive_subset_probabilities(p, candidates, k):
    """Exact subset law of k successive weighted draws without replacement,
    renormalizing over the candidates left, by enumerating ordered draws."""
    law = {}
    for order in itertools.permutations(candidates, k):
        prob, left = 1.0, sum(p[c] for c in candidates)
        for c in order:
            prob *= p[c] / left
            left -= p[c]
        if prob > 0:
            subset = tuple(sorted(order))
            law[subset] = law.get(subset, 0.0) + prob
    return law


# (weights, candidates, k): some zero weights, some candidate sets that leave
# clients out; every instance has more than k positive-weight candidates, and
# every possible subset is expected at least 10 times in 10,000 draws, so the
# normal approximation behind the tolerance holds
SELECTION_INSTANCES = [
    ([0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3], 1),
    ([0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3], 2),
    ([0.5, 0.1, 0.1, 0.2, 0.1], [0, 1, 2, 3, 4], 3),
    ([0.3, 0.0, 0.2, 0.1, 0.0, 0.4], [0, 1, 2, 3, 4, 5], 2),
    ([0.05, 0.05, 0.3, 0.3, 0.15, 0.15], [0, 2, 3, 5], 2),
    ([0.6, 0.1, 0.0, 0.2, 0.1], [0, 1, 2, 4], 2),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 3, 4, 5], 3),
    ([0.8, 0.15, 0.05], [0, 1, 2], 2),
    ([0.07, 0.07, 0.07, 0.07, 0.07, 0.65], [0, 1, 2, 3, 4, 5], 3),
    ([0.2, 0.0, 0.0, 0.3, 0.1, 0.4], [0, 1, 3, 4, 5], 3),
]


@pytest.mark.parametrize("weights, candidates, k", SELECTION_INSTANCES)
def test_sample_selection_exact_subset_distribution(weights, candidates, k):
    # each subset's frequency lies within 5 standard errors of its exact
    # probability under successive sampling; impossible subsets never occur
    draws = 10_000
    p = np.array(weights)
    law = _successive_subset_probabilities(p, candidates, k)
    assert min(law.values()) * draws >= 10
    rng = np.random.default_rng(sum(candidates) + 10 * k)
    counts = {}
    for _ in range(draws):
        subset = tuple(sample_selection(p, candidates, k, rng))
        counts[subset] = counts.get(subset, 0) + 1
    assert set(counts) <= set(law)
    for subset, prob in law.items():
        se = math.sqrt(prob * (1 - prob) / draws)
        assert abs(counts.get(subset, 0) / draws - prob) <= 5 * se, subset


def test_sample_selection_structure_fuzz():
    gen = np.random.default_rng(2024)
    for case in range(1200):
        n = int(gen.integers(1, 40))
        p = gen.dirichlet(np.full(n, 0.5))
        p[gen.random(n) < 0.2] = 0.0  # zero weights among the candidates
        size = int(gen.integers(0, n + 1))  # includes empty candidate sets
        candidates = gen.choice(n, size=size, replace=False).tolist()
        k = int(gen.integers(1, n + 3))  # includes k >= len(candidates)
        rng = np.random.default_rng(case)
        before = rng.bit_generator.state
        got = sample_selection(p, candidates, k, rng)
        assert all(type(x) is int for x in got)
        assert got == sorted(set(got))
        positive = sorted(c for c in candidates if p[c] > 0)
        if len(candidates) <= k:
            assert got == sorted(candidates)
        else:
            assert set(got) <= set(positive)
            assert len(got) == min(k, len(positive))
        if len(candidates) <= k or len(positive) <= k:
            assert rng.bit_generator.state == before  # early returns draw nothing


def test_sample_selection_unselected_removal_keeps_selection():
    # keys are indexed by client id, so dropping a candidate that was not
    # picked leaves the rest of the selection as it was (positive weights)
    gen = np.random.default_rng(7)
    for case in range(300):
        n = int(gen.integers(2, 30))
        p = gen.dirichlet(np.full(n, 0.5)) + 1e-6
        candidates = gen.choice(n, size=int(gen.integers(2, n + 1)), replace=False)
        k = int(gen.integers(1, len(candidates)))
        got = sample_selection(p, candidates, k, np.random.default_rng(case))
        for dropped in set(candidates.tolist()) - set(got):
            rest = [c for c in candidates if c != dropped]
            assert sample_selection(p, rest, k, np.random.default_rng(case)) == got


def test_sample_selection_uniform_frequency():
    n, k, rounds = 6, 2, 20000
    p = np.full(n, 1.0 / n)
    counts = np.zeros(n)
    for t in range(rounds):
        for idx in sample_selection(p, range(n), k, np.random.default_rng(t)):
            counts[idx] += 1
    freq = counts / rounds
    expect = k / n
    se = math.sqrt(expect * (1 - expect) / rounds)
    assert np.all(np.abs(freq - expect) <= 3 * se)


# ------------------------------------------------------------------- full runs

def _problem(num_clients=4, eps=None, samples_per=30, seed=0, feature_dim=2):
    rng = np.random.default_rng(seed)
    model = LinearRegression(feature_dim)
    w_true = rng.normal(size=feature_dim + 1)
    clients = []
    for _ in range(num_clients):
        X = rng.normal(size=(samples_per, feature_dim))
        y = X @ w_true[:-1] + w_true[-1] + 0.05 * rng.normal(size=samples_per)
        clients.append(Dataset(X, y))
    Xt = rng.normal(size=(100, feature_dim))
    yt = Xt @ w_true[:-1] + w_true[-1] + 0.05 * rng.normal(size=100)
    eps = eps if eps is not None else [1.0] * num_clients
    budgets = [PrivacyBudget.fresh(e, 1e-4) for e in eps]
    return FederatedProblem(model, clients, budgets, Dataset(Xt, yt))


def _settings(**kw):
    defaults = dict(mechanism=GM, clients_per_round=2, total_rounds=10,
                    estimation_rounds=3, clip_bound=1.0, loss_cap=10.0,
                    schedule=LearningRateSchedule("experiment_decay", eta0=0.05))
    defaults.update(kw)
    return RunSettings(**defaults)


def test_run_determinism():
    problem = _problem()
    settings = _settings()
    a = run_dpfl_bcs(problem, settings, seed=5)
    b = run_dpfl_bcs(problem, settings, seed=5)
    assert [r.test_loss for r in a.rounds] == [r.test_loss for r in b.rounds]
    assert np.array_equal(a.final_state.weights, b.final_state.weights)
    c = run_dpfl_bcs(problem, settings, seed=6)
    assert [r.test_loss for r in a.rounds] != [r.test_loss for r in c.rounds]


def test_zero_noise_uniform_plan_reduces_to_fedsgd():
    problem = _problem()
    settings = _settings(dp_enabled=False, force_uniform_plan=True,
                         record_weights=True)
    bcs = run_dpfl_bcs(problem, settings, seed=3)
    fed = run_baseline("fedsgd", problem, settings, seed=3)
    assert np.array_equal(bcs.weight_trajectory, fed.weight_trajectory)
    assert [r.selected for r in bcs.rounds] == [r.selected for r in fed.rounds]


def test_stage_transition_and_plan_adherence():
    problem = _problem(num_clients=5)
    settings = _settings(clients_per_round=2, total_rounds=12, estimation_rounds=4)
    res = run_dpfl_bcs(problem, settings, seed=9)
    stages = [r.stage for r in res.rounds]
    assert stages == [1] * 4 + [2] * 8
    assert res.plan_stage2 is not None
    assert res.estimated_params is not None
    # losses reported only during stage one
    assert all(r.losses is not None for r in res.rounds[:4])
    assert all(r.losses is None for r in res.rounds[4:])
    assert all(len(r.selected) <= settings.clients_per_round for r in res.rounds)
    for entry in res.ledger:
        assert entry.stage1_participations <= entry.stage1_planned
        if entry.stage2_planned is not None:
            assert entry.stage2_participations <= entry.stage2_planned


def test_budget_safety_and_slices():
    problem = _problem(num_clients=4, eps=[0.3, 0.5, 1.0, 2.0])
    settings = _settings(total_rounds=20, estimation_rounds=4)
    res = run_dpfl_bcs(problem, settings, seed=1)
    for entry in res.ledger:
        assert entry.epsilon_consumed <= entry.epsilon_total + 1e-9
        assert abs(entry.epsilon_consumed - entry.slice_sum) <= 1e-9
        assert not entry.trained_after_exhaustion


def test_stage_two_slices_use_remaining_budget():
    problem = _problem(num_clients=4)
    settings = _settings(total_rounds=12, estimation_rounds=3)
    res = run_dpfl_bcs(problem, settings, seed=2)
    for entry in res.ledger:
        if entry.stage2_planned and entry.stage2_per_round_epsilon:
            expected = entry.epsilon_remaining_at_replan / entry.stage2_planned
            assert entry.stage2_per_round_epsilon == pytest.approx(expected)


def test_heterogeneous_budgets_favor_large_epsilon():
    # identical data, epsilon 0.1 vs 10: the rich client must get strictly
    # more stage-two rounds, and the returned plan must match enumeration.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 2))
    y = X @ np.array([1.0, -2.0]) + 0.5
    data = Dataset(X, y)
    model = LinearRegression(2)
    problem = FederatedProblem(
        model, [data, data],
        [PrivacyBudget.fresh(0.1, 1e-4), PrivacyBudget.fresh(10.0, 1e-4)],
        data)
    settings = _settings(clients_per_round=1, total_rounds=10, estimation_rounds=4)
    res = run_dpfl_bcs(problem, settings, seed=8)
    plan = res.plan_stage2
    assert plan is not None
    assert plan.counts[1] > plan.counts[0]
    # enumeration cross-check on the integer problem the solver saw
    params = res.estimated_params
    total = plan.counts.sum()
    best = None
    for a in range(total + 1):
        counts = np.array([a, total - a])
        j = objective_value(counts, params.phi_n, params.gamma_hat_n,
                            params.omega_a, params.omega_b, 1)
        best = j if best is None else min(best, j)
    j_plan = objective_value(plan.counts, params.phi_n, params.gamma_hat_n,
                             params.omega_a, params.omega_b, 1)
    assert j_plan <= 1.02 * best + 1e-12


def test_uniform_dp_huge_budget_approaches_fedsgd():
    # In the large-budget limit the noise vanishes; only the participation
    # caps (T_n = KT/N) remain, and once both runs have converged they land
    # on final losses within 1e-3 of each other.
    problem = _problem(num_clients=4, eps=[1e6] * 4, samples_per=60)
    settings = _settings(total_rounds=120, estimation_rounds=3,
                         schedule=LearningRateSchedule("experiment_decay",
                                                       eta0=0.1,
                                                       decay_horizon=120.0))
    dp = run_baseline("uniform_dp", problem, settings, seed=12)
    fed = run_baseline("fedsgd", problem, settings, seed=12)
    assert abs(dp.final_test_loss - fed.final_test_loss) < 1e-3


def test_weiavg_equal_budgets_matches_uniform_dp():
    # Equal budgets collapse the epsilon weights to 1/K whenever a full K
    # clients respond. With accounting off no client is ever capped, so the
    # whole trajectories coincide.
    problem = _problem(num_clients=4, eps=[2.0] * 4)
    settings = _settings(total_rounds=10, estimation_rounds=3, dp_enabled=False)
    wa = run_baseline("weiavg", problem, settings, seed=21)
    ud = run_baseline("uniform_dp", problem, settings, seed=21)
    assert [r.test_loss for r in wa.rounds] == pytest.approx(
        [r.test_loss for r in ud.rounds], rel=1e-12)
    # with accounting on, the runs agree exactly while |S_t| = K; they may
    # part ways once slot caps shrink a round below K responders
    settings_dp = _settings(total_rounds=10, estimation_rounds=3)
    wa = run_baseline("weiavg", problem, settings_dp, seed=21)
    ud = run_baseline("uniform_dp", problem, settings_dp, seed=21)
    k = settings_dp.clients_per_round
    full = 0
    for a, b in zip(wa.rounds, ud.rounds):
        if len(a.selected) < k or len(b.selected) < k:
            break
        full += 1
    assert full >= 3
    for a, b in zip(wa.rounds[:full], ud.rounds[:full]):
        assert a.selected == b.selected
        assert a.test_loss == pytest.approx(b.test_loss, rel=1e-12)


def test_fedsgd_mean_training_loss_decreases():
    curves = []
    for seed in range(5):
        problem = _problem(num_clients=4, samples_per=50, seed=100 + seed)
        settings = _settings(total_rounds=15, estimation_rounds=3,
                             schedule=LearningRateSchedule("experiment_decay",
                                                           eta0=0.08),
                             record_weights=True)
        res = run_baseline("fedsgd", problem, settings, seed=seed)
        model = problem.model
        X = np.vstack([d.features for d in problem.client_data])
        y = np.concatenate([d.targets for d in problem.client_data])
        losses = [model.per_sample_losses(w, X, y).mean()
                  for w in res.weight_trajectory]
        curves.append(losses)
    mean_curve = np.mean(curves, axis=0)
    assert np.all(np.diff(mean_curve) <= 1e-12)


def test_run_validation_errors():
    problem = _problem()
    with pytest.raises(ParameterError):
        run_dpfl_bcs(problem, _settings(estimation_rounds=1), seed=0)
    with pytest.raises(ParameterError):
        run_baseline("adamw", problem, _settings(), seed=0)
    with pytest.raises(ParameterError):
        _settings(total_rounds=3, estimation_rounds=3)


@pytest.mark.parametrize("case", ["negative_label", "label_past_classes", "float_targets",
                                  "test_feature_dim"])
def test_problem_rejects_bad_labels_and_test_width(case):
    # a label of -1 would be scored as the last class and a float label
    # truncated; a narrower test set would fail only inside the metrics
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 2))
    labels = np.arange(12) % 3
    good = Dataset(X, labels)
    clients, test, message = {
        "negative_label": ([good, Dataset(X, labels - 1)], good, r"\[0, 3\)"),
        "label_past_classes": ([good, good], Dataset(X, labels + 1), r"\[0, 3\)"),
        "float_targets": ([good, Dataset(X, labels + 0.25)], good, "integers"),
        "test_feature_dim": ([good, good], Dataset(X[:, :1], labels), "test feature_dim"),
    }[case]
    model = LogisticRegression(2, 3)
    budgets = [PrivacyBudget.fresh(1.0, 1e-4)] * 2
    assert FederatedProblem(model, [good, good], budgets, good).num_clients == 2
    with pytest.raises(ParameterError, match=message):
        FederatedProblem(model, clients, budgets, test)


# -------------------------------------------------------------- ledger checks

def test_undercharging_ledger_fails_the_run(monkeypatch):
    consume = engine.consume_budget

    def undercharge(budget, per_round_epsilon, per_round_delta=0.0):
        return consume(budget, per_round_epsilon / 2, per_round_delta)

    monkeypatch.setattr(engine, "consume_budget", undercharge)
    with pytest.raises(StateError, match="slices charged"):
        run_baseline("uniform_dp", _problem(), _settings(), seed=0)


def _spent_clients():
    data = [Dataset(np.zeros((2, 1)), np.zeros(2))] * 3
    clients = ClientArrays(data, [PrivacyBudget.fresh(1.0, 1e-3)] * 3)
    clients.install([2, 2, 2], dp=True)
    start = clients.epsilon_remaining.copy()
    clients.epsilon_remaining -= clients.slice_epsilon
    clients.slice_sum += clients.slice_epsilon
    clients.stage_count += 1
    return clients, start


@pytest.mark.parametrize("corrupt, message", [
    (lambda c: c.slice_sum.__setitem__(1, 0.0), "slices charged"),
    (lambda c: c.epsilon_remaining.__setitem__(0, -0.1), "more than their budget"),
    (lambda c: c.stage_count.__setitem__(2, 3), "stage-1 plan"),
    (lambda c: c.trained_after_exhaustion.__setitem__(0, True), "after exhausting"),
])
def test_ledger_check_names_the_broken_invariant(corrupt, message):
    clients, start = _spent_clients()
    _check_ledger(clients, start, [(clients.stage_count, clients.planned)])
    corrupt(clients)
    with pytest.raises(StateError, match=message):
        _check_ledger(clients, start, [(clients.stage_count, clients.planned)])
