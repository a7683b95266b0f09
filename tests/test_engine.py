"""Federated loop behavior: local steps, selection, stages, and budgets."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

import dpflsim.engine as engine
import dpflsim.mechanisms as mechanisms
from dpflsim.config import ExperimentConfig
from dpflsim.data import Dataset
from dpflsim.engine import (
    ClientArrays,
    FederatedProblem,
    NAMED_FAILURES,
    RunSettings,
    RoundStreams,
    _check_ledger,
    _round_states,
    aggregate,
    client_round,
    local_gradient,
    run_baseline,
    run_dpfl_bcs,
    sample_selection,
)
from dpflsim.errors import ParameterError, StateError
from dpflsim.harness import run_comparison, run_single
from dpflsim.mechanisms import (
    ClipConfig,
    MechanismKind,
    NoiseSpec,
    PrivacyBudget,
    _row_norms,
    gaussian_sigma,
    gradient_sensitivity,
    laplace_scale,
)
from dpflsim.models import LinearRegression, LogisticRegression, ModelState
from dpflsim.selection import largest_remainder_round, objective_value

GM = MechanismKind.GAUSSIAN
LM = MechanismKind.LAPLACE


# ------------------------------------------------------------------- schedules

def test_learning_rate_schedules():
    # eta0 / (1 + t / h) is the bound's 2 / (mu (gamma + t)) with gamma = h
    # and mu = 2 / (eta0 h); the rate is the first expression to the bit
    settings = _settings(lr_initial=0.1, lr_decay_horizon=10.0)
    mu = 2.0 / (0.1 * 10.0)
    for t in (1, 2, 7, 10, 199, 10**6):
        assert settings.learning_rate(t) == 0.1 / (1.0 + t / 10.0)
        assert settings.learning_rate(t) == pytest.approx(2.0 / (mu * (10.0 + t)))
    rates = [settings.learning_rate(t) for t in range(1, 50)]
    assert all(a > b > 0 for a, b in zip(rates, rates[1:]))
    for t in (0, -1):
        with pytest.raises(ParameterError, match="round index must be >= 1"):
            settings.learning_rate(t)
    refusals = [({name: value}, f"{name} must be positive")
                for name in ("lr_initial", "lr_decay_horizon")
                for value in (0.0, -0.5, math.nan)]
    refusals += [({"mechanism": "gaussian"}, "mechanism must be a MechanismKind"),
                 ({"clients_per_round": 0}, "clients_per_round must be >= 1"),
                 ({"total_rounds": 0}, "total_rounds must be >= 1")]
    for kw, message in refusals:
        with pytest.raises(ParameterError, match=message):
            _settings(**kw)


# --------------------------------------------------------------------- streams

def _stream(seed: int, *key) -> np.random.Generator:
    """The reference generator of (seed, key...): the one `default_rng` builds
    from SeedSequence([seed, *key]), without its `errstate` wrapper. The
    engine's `RoundStreams` installs its state for (seed, domain, round)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed)] + [int(k) for k in key])))


def _draws(gen):
    return [gen.random(64), gen.standard_normal(64), gen.laplace(0.0, 2.0, 64),
            gen.choice(1000, 20, replace=False)]


@pytest.mark.parametrize("seed, key", [(0, (1, 1)), (9, (2, 7)), (2**32 + 5, (1, 0)),
                                       (123456789, (10, 3, 4)), (5, ())])
def test_stream_draws_equal_default_rng(seed, key):
    reference = np.random.default_rng(np.random.SeedSequence([seed, *key]))
    rng = _stream(seed, *key)
    assert type(rng.bit_generator) is type(reference.bit_generator)
    assert rng.bit_generator.state == reference.bit_generator.state
    for a, b in zip(_draws(rng), _draws(reference)):
        assert a.tobytes() == b.tobytes()


def _assert_installed(generator, seed, domain, t):
    reference = np.random.default_rng(np.random.SeedSequence([seed, domain, t]))
    assert type(generator.bit_generator) is type(reference.bit_generator)
    assert generator.bit_generator.state == reference.bit_generator.state
    for a, b in zip(_draws(generator), _draws(reference)):
        assert a.tobytes() == b.tobytes()


_TABLE_SEEDS = [0, 2**32 - 1, 2**32, 2**40 + 3, 10**12]


def test_round_streams_install_seed_sequence_generators():
    # one- and two-word seeds, both domains, and rounds on both sides of each
    # block boundary (blocks [1, B], [B + 1, 2B] and [2B + 1, 2B + 3])
    block = engine.STREAM_BLOCK
    total = 2 * block + 3
    streams = RoundStreams(_TABLE_SEEDS, total)
    generators = set()
    for t in (1, 2, block - 1, block, block + 1, block + 2, 2 * block, 2 * block + 1, total):
        for p, seed in enumerate(_TABLE_SEEDS):
            for domain in (1, 2):
                generator = streams.install(domain, p, t)
                generators.add(id(generator))
                _assert_installed(generator, seed, domain, t)
    # one generator per seed and domain, reused round after round
    assert len(generators) == 2 * len(_TABLE_SEEDS)


@pytest.mark.parametrize("start", [2**32 - 3, 2**40, 2**63])
def test_round_table_equals_generate_state_past_one_word_rounds(start):
    # rounds of 2**32 and more have two entropy words, seeds of 2**64 three
    seeds = [5, 2**33, 2**64 + 9]
    table = _round_states(seeds, start, start + 6)
    assert table.shape == (3, 2, 6, 4) and table.dtype == np.uint64
    for p, seed in enumerate(seeds):
        for domain in (1, 2):
            for i, t in enumerate(range(start, start + 6)):
                expected = np.random.SeedSequence([seed, domain, t]).generate_state(4, np.uint64)
                assert table[p, domain - 1, i].tolist() == expected.tolist()


@hypothesis_settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), t=st.integers(1, 10_000), domain=st.sampled_from([1, 2]))
def test_round_streams_match_seed_sequence_property(seed, t, domain):
    streams = RoundStreams([7, seed], 10_000)
    _assert_installed(streams.install(domain, 1, t), seed, domain, t)


def test_installing_a_round_carries_no_state_from_the_last():
    # an odd number of 32-bit draws leaves half a 64-bit output buffered
    # (has_uint32); installing the next round must drop it
    streams = RoundStreams([3, 2**40 + 3], 20)
    for domain in (1, 2):
        for t in range(1, 20):
            generator = streams.install(domain, 1, t)
            generator.integers(0, 10, size=3, dtype=np.uint32)
            assert generator.bit_generator.state["has_uint32"] == 1
            generator = streams.install(domain, 1, t + 1)
            reference = _stream(2**40 + 3, domain, t + 1)
            assert generator.bit_generator.state == reference.bit_generator.state
            assert (generator.integers(0, 2**32, size=5, dtype=np.uint32).tolist()
                    == reference.integers(0, 2**32, size=5, dtype=np.uint32).tolist())


@pytest.mark.parametrize("block", [4, None], ids=["block4", "default_block"])
def test_histories_across_table_blocks_equal_per_round_derivations(tmp_path, monkeypatch,
                                                                   block):
    # a batch whose rounds span several table blocks writes the histories of
    # generators derived round by round from SeedSequence([seed, domain, t])
    if block:
        monkeypatch.setattr(engine, "STREAM_BLOCK", block)
    cfg = ExperimentConfig(num_clients=6, clients_per_round=2,
                           total_rounds=13 if block else engine.STREAM_BLOCK + 5,
                           estimation_rounds=4, num_samples=120, test_samples=40,
                           feature_dim=2, seed=42)
    run_comparison(cfg, engine.ALGORITHMS, num_seeds=2, out_dir=tmp_path / "table")
    monkeypatch.setattr(engine.RoundStreams, "install",
                        lambda self, domain, p, t: _stream(self.seeds[p], domain, t))
    run_comparison(cfg, engine.ALGORITHMS, num_seeds=2, out_dir=tmp_path / "reference")
    names = sorted(path.name for path in (tmp_path / "table").iterdir())
    assert len(names) > 8
    assert names == sorted(path.name for path in (tmp_path / "reference").iterdir())
    for name in names:
        assert ((tmp_path / "table" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes()), name


# ---------------------------------------------------------------- local pieces

def _regression_state(feature_dim=1):
    model = LinearRegression(feature_dim)
    return ModelState(model.init_weights(), model)


def local_loss(model: ModelState, data: Dataset, loss_cap: float) -> float:
    """Mean per-sample loss with each per-sample loss capped to [0, loss_cap]."""
    if data.feature_dim != model.model_kind.feature_dim:
        raise ParameterError(
            f"data feature_dim {data.feature_dim} != model {model.model_kind.feature_dim}")
    losses = model.model_kind.per_sample_losses(model.weights, data.features, data.targets)
    return float(np.mean(np.clip(losses, 0.0, loss_cap)))


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


def test_local_gradient_refuses_data_of_another_feature_dim():
    data = Dataset(np.ones((2, 2)), np.ones(2))
    with pytest.raises(ParameterError, match="^data feature_dim 2 != model 1$"):
        local_gradient(_regression_state(), data, 0.5, ClipConfig(1.0, "l2"))


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


def _budgets(epsilon, delta, spent=()):
    """One array budget over the clients: fresh, except that the clients in
    `spent` arrive with nothing left."""
    epsilon = np.array(epsilon, dtype=float)
    delta = np.full(epsilon.shape, delta, dtype=float)
    epsilon_remaining, delta_remaining = epsilon.copy(), delta.copy()
    epsilon_remaining[list(spent)] = delta_remaining[list(spent)] = 0.0
    return PrivacyBudget(epsilon, delta, epsilon_remaining, delta_remaining)


def _block(data):
    """The clients' datasets stacked into one block, client 0's rows first,
    the row order that reads it as it is, and the column of their row
    counts."""
    num_samples = np.array([d.num_samples for d in data])
    return (Dataset(np.vstack([d.features for d in data]),
                    np.concatenate([d.targets for d in data])),
            np.arange(num_samples.sum()), num_samples)


def _clients(data, budgets):
    """The run state of clients holding the datasets `data`, one per client."""
    return ClientArrays(*_block(data), budgets)


def _rows(problem, n):
    """Client n's rows of a problem, read through its row order."""
    start = int(np.sum(problem.num_samples[:n]))
    rows = problem.rows[start:start + int(problem.num_samples[n])]
    return Dataset(problem.train.features[rows], problem.train.targets[rows])


def _round_of_one(clients, ids, state, eta, rng, settings, report_losses, noise_enabled=True):
    """`client_round` over a batch of one run at `state`'s weights."""
    return client_round(clients, ids, state.model_kind, state.weights[None], eta, [rng],
                        settings, np.array([report_losses]), np.array([noise_enabled]))


def _one_client(data, spent=False, **settings_kw):
    settings = _settings(clip_bound=1.0, loss_cap=10.0, c2=1.0, **settings_kw)
    clients = _clients([data], _budgets([1.0], 1e-3, spent=[0] if spent else []))
    clients.install([PLANNED], settings)
    return clients, settings


def test_client_round_zero_noise_exact():
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))
    state = _regression_state()
    clients, settings = _one_client(data)
    gradients, losses = _round_of_one(clients, [0], state, ETA, np.random.default_rng(0),
                                      settings, report_losses=True, noise_enabled=False)
    g = local_gradient(state, data, ETA, settings.clip)
    assert gradients.shape == (1, 2)
    assert np.array_equal(gradients[0], g)
    assert losses[0, 0] == local_loss(state, data, 10.0)
    assert losses[0, 1] == local_loss(ModelState(state.weights - g, state.model_kind), data, 10.0)
    assert clients.epsilon_remaining[0] == 1.0 and clients.delta_remaining[0] == 1e-3
    assert clients.slice_sum[0] == 0.0
    assert clients.stage_count[0] == 1


def test_client_round_loss_distortion_rule():
    # F_hat must equal (eta * F + z) / eta with z the (d)-th noise coordinate.
    data = Dataset(np.array([[0.0]]), np.array([-math.sqrt(2.0)]))
    state = _regression_state()
    clients, settings = _one_client(data)
    gradients, losses = _round_of_one(clients, [0], state, ETA, np.random.default_rng(77),
                                      settings, report_losses=True)
    f = local_loss(state, data, 10.0)  # = 2.0
    assert f == pytest.approx(2.0)
    # replay the identical stream to recover the drawn noise
    sens = gradient_sensitivity(GM, ETA, 1.0, 1, 10.0, include_loss_terms=True)
    scale = gaussian_sigma(sens, 1.0, 1e-3, PLANNED, 1.0)
    noise = np.random.default_rng(77).normal(0.0, scale, size=4)
    g = local_gradient(state, data, ETA, settings.clip)
    assert np.array_equal(gradients[0], g + noise[:2])
    assert losses[0, 0] == (ETA * f + noise[2]) / ETA
    f_updated = local_loss(ModelState(state.weights - g, state.model_kind), data, 10.0)
    assert losses[0, 1] == (ETA * f_updated + noise[3]) / ETA
    # one slice charged
    assert clients.epsilon_remaining[0] == 1.0 - 0.25
    assert clients.slice_sum[0] == 0.25


def test_client_round_distortion_hand_example():
    # eta=0.5, F=2.0, z=0.1 -> (1.0 + 0.1) / 0.5 = 2.2
    assert (0.5 * 2.0 + 0.1) / 0.5 == pytest.approx(2.2)


def test_client_round_without_noise_trains_an_exhausted_client():
    # a client that arrives spent still trains in diagnostics mode, which
    # ignores the ledger
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    state = _regression_state()
    clients, settings = _one_client(data, spent=True)
    gradients, _ = _round_of_one(clients, [0], state, ETA, np.random.default_rng(0), settings,
                                 report_losses=False, noise_enabled=False)
    assert gradients.shape == (1, 2) and clients.stage_count[0] == 1
    assert np.array_equal(gradients[0], local_gradient(state, data, ETA, settings.clip))


def test_budget_arriving_exhausted_is_never_eligible():
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    clients = _clients([data] * 3, _budgets([1.0, 1.0, 2.0], 1e-3, spent=[1]))
    clients.install([4, 4, 4], _settings())
    assert clients.exhausted.tolist() == [False, True, False]
    assert clients.candidates().tolist() == [True, False, True]
    assert clients.slice_epsilon.tolist() == [0.25, 0.0, 0.5]
    assert clients.slice_delta[1] == 0.0 and clients.stage_epsilon[1] == 0.0
    # so a run never selects it
    problem = _problem(num_clients=4)
    problem.budgets = _budgets([1.0] * 4, 1e-4, spent=[1])
    res = run_baseline("uniform_dp", problem, _settings(total_rounds=12), seed=4)
    assert res.rounds and all(1 not in r.selected for r in res.rounds)
    assert res.ledger[1].participations == 0 and res.ledger[1].exhausted


@pytest.mark.parametrize("seed", [0, 3])
def test_stage_install_names_the_clients_it_cannot_noise(seed):
    # client 3 has no Gaussian delta; round 1 draws it under seed 0 and not
    # under seed 3, and the run fails before round 1 either way
    problem = _problem(num_clients=6)
    delta = np.full(6, 1e-4)
    delta[3] = 0.0
    problem.budgets = PrivacyBudget(np.ones(6), delta, np.ones(6), delta.copy())
    finished = []
    with pytest.raises(ParameterError, match=r"^stage 1: clients \[3\] .*total_delta"):
        run_baseline("uniform_dp", problem, _settings(), seed=seed,
                     on_round=finished.append)
    assert finished == []


@pytest.mark.parametrize("mechanism, overrides, message", [
    (GM, dict(clip_bound=8e307, loss_cap=8e307),
     "sensitivity overflows at clip_bound = 8e+307, loss_cap = 8e+307 and c2 = 1.0"),
    (GM, dict(clip_bound=1e290, c2=1e20),
     "scale overflows at clip_bound = 1e+290, loss_cap = 10.0 and c2 = 1e+20"),
    (LM, dict(clip_bound=5e307),
     "scale overflows at clip_bound = 5e+307, loss_cap = 10.0 and c2 = 1.0"),
])
def test_stage_install_refuses_noise_that_overflows(mechanism, overrides, message):
    # every RuntimeWarning fails a test, so the calibration leaks none; client
    # 0's 10**4 samples keep its noise in range, so client 1 is the first of
    # the two one-sample clients that fail
    data = [Dataset(np.ones((10**4, 1)), np.ones(10**4))] + [Dataset(np.ones((1, 1)),
                                                                     np.ones(1))] * 2
    clients = _clients(data, _budgets([1.0] * 3, 1e-3 if mechanism is GM else 0.0))
    with pytest.raises(ParameterError, match=re.escape(
            f"stage 1: clients [1, 2] cannot be noised: client 1's noise {message}")):
        clients.install([PLANNED] * 3, _settings(mechanism=mechanism, **overrides))


@pytest.mark.parametrize("num_clients, named", [
    (NAMED_FAILURES, str(list(range(NAMED_FAILURES)))),
    (NAMED_FAILURES + 2, f"{list(range(NAMED_FAILURES))} and maybe others after "
                         f"{NAMED_FAILURES - 1}"),
])
def test_stage_install_names_at_most_ten_failing_clients(num_clients, named):
    # every one-sample client's sensitivity overflows; the rescan stops at the
    # tenth, and says so when clients remain unchecked
    data = [Dataset(np.ones((1, 1)), np.ones(1))] * num_clients
    clients = _clients(data, _budgets([1.0] * num_clients, 1e-3))
    with pytest.raises(ParameterError, match=re.escape(
            f"stage 1: clients {named} cannot be noised: client 0's noise sensitivity")):
        clients.install([PLANNED] * num_clients,
                        _settings(clip_bound=8e307, loss_cap=8e307))


def test_client_round_monte_carlo_unbiased():
    # n copies of one client in a single batch, noised from one generator
    data = Dataset(np.array([[1.0], [2.0]]), np.array([0.5, -0.5]))
    state = _regression_state()
    n = 10**4
    clients = _clients([data] * n, _budgets([1.0] * n, 1e-3))
    settings = _settings(clip_bound=1.0, loss_cap=10.0, c2=1.0)
    clients.install(np.full(n, PLANNED), settings)
    gradients, _ = _round_of_one(clients, np.arange(n), state, ETA, np.random.default_rng(1000),
                                 settings, report_losses=False)
    g = local_gradient(state, data, ETA, settings.clip)
    scale = gaussian_sigma(gradient_sensitivity(GM, ETA, 1.0, 2), 1.0, 1e-3, PLANNED)
    mean = gradients.mean(axis=0)
    tol = 3.0 * scale / math.sqrt(n)
    assert np.all(np.abs(mean - g) <= tol)
    assert np.all(clients.epsilon_remaining == 0.75)


def _batch_problem(mechanism):
    rng = np.random.default_rng(31)
    model = LogisticRegression(3, 4)
    sizes = [1, 7, 3, 12, 5, 2]
    data = [Dataset(rng.normal(size=(m, 3)), rng.integers(0, 4, size=m)) for m in sizes]
    delta = 1e-4 if mechanism is GM else 0.0
    budgets = _budgets([0.4, 1.0, 2.5, 0.7, 3.0, 1.5], delta)
    state = ModelState(rng.normal(scale=0.5, size=model.dim), model)
    return data, budgets, state


@pytest.mark.parametrize("mechanism", [GM, LM])
@pytest.mark.parametrize("report_losses", [False, True])
def test_client_round_batch_equals_single_rounds(mechanism, report_losses):
    data, budgets, state = _batch_problem(mechanism)
    settings = _settings(mechanism=mechanism, clip_bound=0.8, loss_cap=2.0)
    plan = [3, 2, 4, 1, 5, 2]
    dim = state.model_kind.dim

    def fresh():
        clients = _clients(data, budgets)
        clients.install(plan, settings)
        return clients

    batch_clients = fresh()
    single_clients = fresh()
    for t, eta in enumerate([0.3, 0.2], start=1):
        # client 3 plans one round, so round two no longer selects it
        ids = [n for n in (0, 1, 3, 4, 5) if t == 1 or n != 3]
        gradients, losses = _round_of_one(batch_clients, ids, state, eta, _stream(9, 2, t),
                                          settings, report_losses)
        # the one-responder rounds draw in turn from one generator keyed like
        # the batch's, so they see the batch's noise rows in order
        rng = _stream(9, 2, t)
        singles = [_round_of_one(single_clients, [n], state, eta, rng, settings,
                                 report_losses) for n in ids]
        assert len(gradients) == len(ids)
        for i, (single_gradients, single_losses) in enumerate(singles):
            np.testing.assert_allclose(gradients[i], single_gradients[0], rtol=1e-12, atol=0)
            if report_losses:
                np.testing.assert_allclose(losses[i], single_losses[0], rtol=1e-12, atol=0)
            else:
                assert losses is None and single_losses is None
        # identical noise draws: each responder's step plus its replayed noise
        sens = gradient_sensitivity(mechanism, eta, 0.8,
                                    batch_clients.num_samples[ids], 2.0,
                                    report_losses)
        rng = _stream(9, 2, t)
        for i, n in enumerate(ids):
            width = dim + 2 if report_losses else dim
            if mechanism is GM:
                scale = gaussian_sigma(sens[i], budgets.epsilon[n], budgets.delta[n],
                                       plan[n], 1.0)
                noise = rng.normal(0.0, scale, size=width)
            else:
                scale = plan[n] * sens[i] / budgets.epsilon[n]
                noise = rng.laplace(0.0, scale, size=width)
            step = local_gradient(state, data[n], eta, settings.clip)
            np.testing.assert_allclose(gradients[i], step + noise[:dim],
                                       rtol=1e-12, atol=0)
    for name in ("epsilon_remaining", "delta_remaining", "slice_sum", "stage_count",
                 "exhausted"):
        assert np.array_equal(getattr(batch_clients, name), getattr(single_clients, name))


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
    clients = _clients(data, _budgets([1.0] * len(data), delta))
    settings = _settings(mechanism=mechanism, clip_bound=bound)
    clients.install([3] * len(data), settings)
    eta = 0.3
    gradients, _ = _round_of_one(clients, np.arange(len(data)), state, eta,
                                 np.random.default_rng(0), settings, report_losses=False,
                                 noise_enabled=False)
    assert len(gradients) == len(data)
    for i, d in enumerate(data):
        expected = local_gradient(state, d, eta, settings.clip)
        assert np.all(np.abs(gradients[i] - expected) <= 1e-13 * eta * bound)


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
                   _rows(problem, 0), 0.1, settings.clip)
    assert calls == {"gradients": 1, "clip": 1}


@pytest.mark.parametrize("dataset", ["synthetic_regression", "synthetic_classification"])
def test_lockstep_rounds_make_two_outputs_calls_and_no_per_sample_losses(monkeypatch, dataset):
    # a lock-step round's model work is one segmented `outputs` call for the
    # output gradients and, in a loss-reporting round, one for the losses;
    # the one-segment `per_sample_losses` and `output_gradients` stay off it
    calls = {"outputs": 0, "losses": 0, "gradients": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for kind in (LinearRegression, LogisticRegression):
        for key, name in (("outputs", "outputs"), ("losses", "per_sample_losses"),
                          ("gradients", "output_gradients")):
            monkeypatch.setattr(kind, name, counting(key, getattr(kind, name)))
    cfg = ExperimentConfig(dataset=dataset, num_clients=8, clients_per_round=3,
                           total_rounds=6, estimation_rounds=3, num_samples=240,
                           test_samples=40, seed=4)
    summary = run_comparison(cfg, ["dpfl_bcs", "uniform_dp"], num_seeds=2)
    assert len(summary.rows) == 2
    # every round selects someone, and the first T0 rounds report losses
    assert calls == {"outputs": 6 + 3, "losses": 0, "gradients": 0}


def test_randomness_is_drawn_per_round_not_per_responder(monkeypatch):
    # at most one selection and one noise generator installed per round, and
    # one noise draw call for all responders together
    calls, installs = {"noise": 0}, []
    real_install, real_noise = engine.RoundStreams.install, engine.sample_noise

    def counting_install(self, domain, p, t):
        installs.append((self.seeds[p], domain, t))
        return real_install(self, domain, p, t)

    def counting_noise(*args):
        calls["noise"] += 1
        return real_noise(*args)

    monkeypatch.setattr(engine.RoundStreams, "install", counting_install)
    monkeypatch.setattr(engine, "sample_noise", counting_noise)
    problem = _problem(num_clients=6)
    settings = _settings(clients_per_round=3, total_rounds=10, estimation_rounds=3)
    for run in (lambda: run_baseline("uniform_dp", problem, settings, seed=3),
                lambda: run_dpfl_bcs(problem, settings, seed=3)):
        calls.update(noise=0)
        installs.clear()
        res = run()
        rounds = len(res.rounds)
        assert not res.ended_early and rounds == settings.total_rounds
        assert 0 < calls["noise"] <= rounds
        # every round selects and noises: one install per domain and round
        assert sorted(installs) == [(3, domain, t) for domain in (1, 2)
                                    for t in range(1, rounds + 1)]


@pytest.mark.parametrize("mechanism", [GM, LM], ids=["gaussian", "laplace"])
@pytest.mark.parametrize("algorithm", ["uniform_dp", "dpfl_bcs"])
def test_rounds_do_not_recheck_the_stage_columns(monkeypatch, mechanism, algorithm):
    # A stage's privacy columns are checked once, when it is installed. Each
    # added DP round may add only consume_budget's two slice checks, no
    # privacy dataclass check, and one budget built by the engine.
    counts = dict.fromkeys(("check", "post_init", "budgets"), 0)
    real_check, real_unchecked = mechanisms._check, engine._unchecked

    def counting_check(*args, **kwargs):
        counts["check"] += 1
        return real_check(*args, **kwargs)

    def counting_unchecked(cls, rows):
        built = real_unchecked(cls, rows)
        counts["budgets"] += len(built) if cls is PrivacyBudget else 0
        return built

    monkeypatch.setattr(mechanisms, "_check", counting_check)
    monkeypatch.setattr(engine, "_check", counting_check)
    monkeypatch.setattr(engine, "_unchecked", counting_unchecked)
    for cls in (PrivacyBudget, NoiseSpec):
        def counting_post_init(self, _real=cls.__post_init__):
            counts["post_init"] += 1
            _real(self)
        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    problem = _problem(num_clients=6)
    problem.budgets = _budgets([1.0] * 6, 1e-4 if mechanism is GM else 0.0)

    def run(total_rounds):
        settings = _settings(mechanism=mechanism, clients_per_round=3,
                             total_rounds=total_rounds, estimation_rounds=3)
        counts.update(check=0, post_init=0, budgets=0)
        res = (run_dpfl_bcs(problem, settings, seed=3) if algorithm == "dpfl_bcs"
               else run_baseline(algorithm, problem, settings, seed=3))
        assert not res.ended_early and len(res.rounds) == total_rounds
        assert counts["budgets"] <= total_rounds
        return dict(counts)

    short, long = run(10), run(30)
    assert long["check"] - short["check"] <= 2 * 20
    assert long["post_init"] == short["post_init"]
    assert long["budgets"] - short["budgets"] <= 20


def test_round_calibration_matches_the_public_primitives(monkeypatch):
    # The round calibrates with the unchecked formulas of the public
    # primitives, in their order of operations, and consume_budget builds its
    # result unchecked: the values must be the checked paths' bits, and the
    # result must pass a checked rebuild.
    specs, results = [], []
    real_noise, real_consume = engine.sample_noise, engine.consume_budget

    def capture_noise(spec, dimension, noise_rng):
        specs.append(spec)
        return real_noise(spec, dimension, noise_rng)

    def capture_consume(budget, per_round_epsilon, per_round_delta=0.0):
        out = real_consume(budget, per_round_epsilon, per_round_delta)
        results.append(out)
        return out

    monkeypatch.setattr(engine, "sample_noise", capture_noise)
    monkeypatch.setattr(engine, "consume_budget", capture_consume)
    rng = np.random.default_rng(2024)
    model = LinearRegression(2)
    for i in range(300):
        mechanism = (GM, LM)[i % 2]
        # eta in [0, 1], both ends included; loss reports need eta > 0
        eta = {0: 1.0, 1: 0.0}.get(i % 10, float(rng.uniform(0.0, 1.0)))
        report_losses = eta > 0 and bool(i // 2 % 2)
        n = int(rng.integers(1, 6))
        samples = rng.integers(1, 501, size=n)
        epsilon = 10 ** rng.uniform(-2.0, 2.0, size=n)
        delta = 10 ** rng.uniform(-12.0, -0.01, size=n) if mechanism is GM else np.zeros(n)
        spent = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.5)
        budgets = PrivacyBudget(epsilon, delta, epsilon * (1 - spent), delta * (1 - spent))
        planned = rng.integers(1, 500, size=n)
        settings = _settings(mechanism=mechanism, clip_bound=float(10 ** rng.uniform(-2, 1)),
                             loss_cap=float(rng.uniform(0.0, 10.0)),
                             c2=float(10 ** rng.uniform(-1, 1)))
        data = [Dataset(rng.normal(size=(m, 2)), rng.normal(size=m)) for m in samples]
        clients = _clients(data, budgets)
        clients.install(planned, settings)
        specs.clear()
        results.clear()
        _round_of_one(clients, np.arange(n), ModelState(rng.normal(size=3), model), eta,
                      np.random.default_rng(i), settings, report_losses)
        (spec,), ((after, exhausted),) = specs, results
        sens = gradient_sensitivity(mechanism, eta, settings.clip_bound, samples,
                                    settings.loss_cap, report_losses)
        remaining_eps, remaining_delta = budgets.epsilon_remaining, budgets.delta_remaining
        if mechanism is GM:
            scale = gaussian_sigma(sens, remaining_eps, remaining_delta, planned, settings.c2)
        else:
            scale = laplace_scale(sens, remaining_eps, planned)
        assert (spec.sensitivity == sens).all() and (spec.scale == scale).all()
        assert (spec.planned_rounds == planned).all()
        slice_eps, slice_delta = remaining_eps / planned, remaining_delta / planned
        assert (spec.per_round_epsilon == slice_eps).all()
        assert (spec.per_round_delta == slice_delta).all()
        rebuilt = PrivacyBudget(after.epsilon, after.delta, after.epsilon_remaining,
                                after.delta_remaining)
        for name, expected in (("epsilon", epsilon), ("delta", delta),
                               ("epsilon_remaining", np.maximum(0.0, remaining_eps - slice_eps)),
                               ("delta_remaining",
                                np.maximum(0.0, remaining_delta - slice_delta))):
            assert np.array_equal(getattr(rebuilt, name), expected)
        assert np.array_equal(exhausted, rebuilt.exhausted)


# ------------------------------------------------------------------ aggregation

def test_aggregate_examples():
    # one run's rows give one row
    got = aggregate([np.array([1.0, 1.0]), np.array([3.0, 3.0])], 2)
    assert np.array_equal(got, np.array([[2.0, 2.0]]))
    assert np.array_equal(aggregate([np.array([5.0])], 1), np.array([[5.0]]))
    assert np.array_equal(aggregate([np.zeros(3), np.zeros(3)], 2), np.zeros((1, 3)))
    # nominal-K divisor shrinks the update when responders are missing
    short = aggregate([np.array([3.0, 3.0])], 2)
    assert np.array_equal(short, np.array([[1.5, 1.5]]))


def test_aggregate_stacked_array_matches_list():
    grads = np.random.default_rng(3).normal(size=(5, 4))
    assert np.array_equal(aggregate(grads, 7), aggregate(list(grads), 7))


def test_aggregate_of_several_runs_equals_their_own_sums():
    # one call over several runs' rows, of equal or ragged counts, gives each
    # run the bits of np.sum over its own rows divided by its own K
    gen = np.random.default_rng(18)
    for case in range(300):
        runs, dim = int(gen.integers(1, 12)), int(gen.integers(2, 9))
        counts = (np.full(runs, int(gen.integers(1, 9))) if case % 2
                  else gen.integers(1, 9, size=runs))
        rows = gen.normal(size=(counts.sum(), dim)) * 10.0 ** gen.uniform(-3, 5)
        k = gen.integers(1, 6, size=runs)
        starts = np.cumsum(counts) - counts
        got = aggregate(rows, k, starts)
        assert got.shape == (runs, dim)
        for r in range(runs):
            own = rows[starts[r]:starts[r] + counts[r]]
            assert got[r].tobytes() == (np.sum(own, axis=0) / k[r]).tobytes()
        assert aggregate(rows, 3, starts).tobytes() == np.array(
            [np.sum(rows[a:a + c], axis=0) / 3 for a, c in zip(starts, counts)]).tobytes()


# -------------------------------------------------------------------- sampling

def _select_one(p, candidates, k, rng):
    """The sorted client ids that `sample_selection` picks from the candidate
    ids `candidates` in a batch of one run."""
    mask = np.zeros((1, len(p)), dtype=bool)
    mask[0, np.asarray(candidates, dtype=int)] = True
    return sample_selection(np.asarray(p)[None], mask, k, [rng]).tolist()


def test_sample_selection_degenerate_weight():
    p = np.array([1.0, 0.0, 0.0])
    for seed in range(20):
        assert _select_one(p, [0, 1, 2], 1, np.random.default_rng(seed)) == [0]


def test_sample_selection_small_candidate_set():
    p = np.full(6, 1 / 6)
    assert _select_one(p, [4, 2], 5, np.random.default_rng(0)) == [2, 4]
    assert _select_one(p, [], 3, np.random.default_rng(0)) == []


def test_sample_selection_determinism_and_distinctness():
    p = np.array([0.4, 0.3, 0.2, 0.05, 0.05])
    a = _select_one(p, range(5), 3, np.random.default_rng(11))
    b = _select_one(p, range(5), 3, np.random.default_rng(11))
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
        subset = tuple(_select_one(p, candidates, k, rng))
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
        got = _select_one(p, candidates, k, rng)
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
        got = _select_one(p, candidates, k, np.random.default_rng(case))
        for dropped in set(candidates.tolist()) - set(got):
            rest = [c for c in candidates if c != dropped]
            assert _select_one(p, rest, k, np.random.default_rng(case)) == got


def test_sample_selection_uniform_frequency():
    n, k, rounds = 6, 2, 20000
    p = np.full(n, 1.0 / n)
    counts = np.zeros(n)
    for t in range(rounds):
        for idx in _select_one(p, range(n), k, np.random.default_rng(t)):
            counts[idx] += 1
    freq = counts / rounds
    expect = k / n
    se = math.sqrt(expect * (1 - expect) / rounds)
    assert np.all(np.abs(freq - expect) <= 3 * se)


def _reference_selection(p, candidates, k, rng):
    """Efraimidis-Spirakis over the candidates alone, one row at a time."""
    ids = np.sort(np.asarray(candidates, dtype=int))
    if len(ids) <= k:
        return ids.tolist()
    ids = ids[p[ids] > 0]
    if len(ids) <= k:
        return ids.tolist()
    keys = np.log(rng.random(len(p))[ids]) / p[ids]
    return np.sort(ids[np.argsort(keys)[len(ids) - k:]]).tolist()


def test_stacked_sample_selection_equals_per_run_calls():
    # rows share a generator in consecutive groups, as a seed's runs do, and
    # sometimes out of order; masks leave clients out, some weights are zero,
    # and k covers both shortcuts: each row selects what a call of its own
    # selects from its generator's state on entry, and each generator ends
    # one draw of N past that state if a row drew from it
    gen = np.random.default_rng(2026)
    shortcuts = {"candidates": 0, "positive": 0, "drawn": 0}
    for case in range(400):
        rows, n = int(gen.integers(1, 9)), int(gen.integers(1, 25))
        k = int(gen.integers(1, n + 3))
        p = gen.dirichlet(np.full(n, 0.7), size=rows)
        p[gen.random((rows, n)) < 0.25] = 0.0
        mask = gen.random((rows, n)) < gen.uniform(0.2, 1.0)
        seeds = np.sort(gen.integers(0, 4, size=rows)) if case % 3 else gen.integers(0, 4,
                                                                                    size=rows)
        generators = {int(seed): np.random.default_rng([case, int(seed)]) for seed in seeds}
        got = sample_selection(p, mask, k, [generators[int(seed)] for seed in seeds])
        assert got.dtype.kind == "i" and np.all(np.diff(got) > 0)
        drew = set()
        for g in range(rows):
            rng = np.random.default_rng([case, int(seeds[g])])
            expected = _reference_selection(p[g], np.flatnonzero(mask[g]), k, rng)
            assert got[got // n == g].tolist() == [g * n + c for c in expected]
            positive = np.count_nonzero(mask[g] & (p[g] > 0))
            if mask[g].sum() <= k:
                shortcuts["candidates"] += 1
            elif positive <= k:
                shortcuts["positive"] += 1
            else:
                shortcuts["drawn"] += 1
                drew.add(int(seeds[g]))
        for seed, rng in generators.items():
            after = np.random.default_rng([case, seed])
            if seed in drew:
                after.random(n)
            assert rng.bit_generator.state == after.bit_generator.state
    assert min(shortcuts.values()) >= 40


def test_sample_selection_never_picks_a_non_candidate_over_an_infinite_key():
    # weights under about 1e-307 overflow their candidates' keys, which then
    # tie with the non-candidates' fill: the picks stay among the candidates
    p = np.array([0.3, 0.3, 0.3, 1e-310, 1e-310, 1e-310, 0.5, 0.5])
    mask = np.array([[False] * 3 + [True] * 5])
    for seed in range(20):
        with np.errstate(over="ignore"):
            got = sample_selection(p[None], mask, 3, [np.random.default_rng(seed)]).tolist()
        assert len(got) == 3 and {6, 7} <= set(got) <= set(range(3, 8))


def test_stacked_sample_selection_checks_its_rows():
    p, mask = np.full((2, 4), 0.25), np.ones((2, 4), dtype=bool)
    rng = np.random.default_rng(0)
    # a weight that a row does not read, a non-candidate's or one within the
    # row's first shortcut, leaves the rows' selections as they are
    p[1, 3] = -0.5
    mask[1, 3] = False
    assert len(sample_selection(p, mask, 2, [rng] * 2)) == 4
    mask[1] = [True, False, False, True]
    assert sample_selection(p, mask, 2, [rng] * 2).tolist()[2:] == [4, 7]


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
    return FederatedProblem(model, *_block(clients), _budgets(eps, 1e-4), Dataset(Xt, yt))


def _settings(**kw):
    defaults = dict(mechanism=GM, clients_per_round=2, total_rounds=10,
                    estimation_rounds=3, clip_bound=1.0, loss_cap=10.0,
                    lr_initial=0.05, lr_decay_horizon=200.0)
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


def test_runs_read_each_clients_rows_through_the_row_order():
    # a block's rows may lie in any order: a problem whose block is shuffled,
    # with the order that reads it back client by client, runs bit for bit
    # as the problem whose block is in client order, alone and stacked with
    # another problem, whose order the stacked block shifts past its rows
    problem = _problem(num_clients=5)
    shuffle = np.random.default_rng(3).permutation(problem.train.num_samples)
    shuffled = FederatedProblem(problem.model, problem.train.subset(shuffle),
                                np.argsort(shuffle), problem.num_samples, problem.budgets,
                                problem.test_data)
    settings = _settings()
    algorithms = ["dpfl_bcs", "uniform_dp", "weiavg"]
    stacked = engine.run_lockstep_seeds([problem, shuffled], [7, 8], settings, algorithms)
    for a, algorithm in enumerate(algorithms):
        _assert_same_run(_alone(algorithm, shuffled, settings, 7),
                         _alone(algorithm, problem, settings, 7))
        for seed, results in zip((7, 8), stacked):
            _assert_same_run(results[a], _alone(algorithm, problem, settings, seed))


def _alone(algorithm, problem, settings, seed):
    if algorithm == "dpfl_bcs":
        return run_dpfl_bcs(problem, settings, seed)
    return run_baseline(algorithm, problem, settings, seed)


def _assert_same_run(got, alone):
    assert got.algorithm == alone.algorithm
    assert got.rounds == alone.rounds
    assert got.ended_early == alone.ended_early
    assert got.final_state.weights.tobytes() == alone.final_state.weights.tobytes()
    for name in ClientArrays._COLUMNS:
        assert (getattr(got.clients, name).tobytes()
                == getattr(alone.clients, name).tobytes()), name
    assert got.ledger == alone.ledger


@pytest.mark.parametrize("mechanism", [GM, LM], ids=["gaussian", "laplace"])
def test_lockstep_runs_equal_runs_of_their_own(mechanism):
    # a round's batch mixes unnoised fedsgd rows with DP rows, and dpfl_bcs's
    # loss-reporting rows (noise width d + 2) with gradient-only ones (d);
    # each run still comes out bit for bit as the algorithm run alone
    problem = _problem(num_clients=6)
    problem.budgets = _budgets([0.5, 1.0, 2.0, 0.8, 3.0, 1.5],
                               1e-4 if mechanism is GM else 0.0)
    settings = _settings(mechanism=mechanism, clients_per_round=3, total_rounds=12,
                         estimation_rounds=4, record_weights=True)
    together, = engine.run_lockstep_seeds([problem], [3], settings, engine.ALGORITHMS)
    assert [r.algorithm for r in together] == list(engine.ALGORITHMS)
    for got in together:
        alone = _alone(got.algorithm, problem, settings, 3)
        _assert_same_run(got, alone)
        assert got.weight_trajectory.tobytes() == alone.weight_trajectory.tobytes()


@pytest.mark.parametrize("force_uniform_plan", [False, True])
def test_lockstep_dpfl_bcs_run_computes_its_incoming_constants_once(monkeypatch,
                                                                    force_uniform_plan):
    # (Lambda, Phi_n) at the incoming budgets is the call with no client ids:
    # each dpfl_bcs run makes it once, where a plan first needs it (at set-up
    # for a fitted plan, at the replan's fit under the uniform plan), and a
    # baseline never; a fitted replan adds one call over its active clients
    real, calls = engine.compute_phi_lambda, []

    def counting(*args, client_ids=None):
        calls.append(client_ids)
        return real(*args, client_ids=client_ids)

    monkeypatch.setattr(engine, "compute_phi_lambda", counting)
    problems = [_problem(num_clients=6, seed=seed) for seed in (0, 1)]
    settings = _settings(force_uniform_plan=force_uniform_plan)
    batch = engine.run_lockstep_seeds(problems, [4, 5], settings, engine.ALGORITHMS)
    bcs = [result for results in batch for result in results if result.algorithm == "dpfl_bcs"]
    assert len(bcs) == 2 and all(r.estimated_params is not None for r in bcs)
    assert all(r.plan_stage2 is not None for r in bcs)
    assert sum(ids is None for ids in calls) == 2
    assert sum(ids is not None for ids in calls) == (0 if force_uniform_plan else 2)


def test_lockstep_run_that_ends_leaves_the_others_running():
    # every client arrives with its budget spent: the DP runs end in round 1
    # with nothing selected, and fedsgd, which ignores budgets, runs on alone
    problem = _problem(num_clients=4)
    problem.budgets = _budgets([1.0] * 4, 1e-4, spent=range(4))
    settings = _settings(total_rounds=6)
    together, = engine.run_lockstep_seeds([problem], [2], settings,
                                          ["uniform_dp", "fedsgd", "dpfl_bcs"])
    assert [(r.ended_early, len(r.rounds)) for r in together] == [(True, 0), (False, 6),
                                                                   (True, 0)]
    for got in together:
        _assert_same_run(got, _alone(got.algorithm, problem, settings, 2))


def test_lockstep_refuses_bad_algorithm_lists():
    problem, settings = _problem(), _settings()
    with pytest.raises(ParameterError, match="no algorithm"):
        engine.run_lockstep_seeds([problem], [0], settings, [])
    with pytest.raises(ParameterError, match="'sgd'"):
        engine.run_lockstep_seeds([problem], [0], settings, ["fedsgd", "sgd"])
    with pytest.raises(ParameterError, match="estimation_rounds >= 2"):
        engine.run_lockstep_seeds([problem], [0], _settings(estimation_rounds=1),
                                  ["fedsgd", "dpfl_bcs"])
    with pytest.raises(ParameterError, match="seed must be nonnegative"):
        engine.run_lockstep_seeds([problem], [-1], settings, ["fedsgd"])
    with pytest.raises(ParameterError, match="clients_per_round 5 exceeds num_clients 4"):
        engine.run_lockstep_seeds([problem], [0], _settings(clients_per_round=5), ["fedsgd"])


def test_stacked_client_arrays_are_views_of_one_block():
    problem = _problem(num_clients=3)
    problem.budgets = _budgets([1.0, 2.0, 3.0], 1e-4, spent=[1])
    block, views = ClientArrays.stacked([problem], 2)
    one = ClientArrays(problem.train, problem.rows, problem.num_samples, problem.budgets)
    assert len(block.epsilon) == 6 and len(views) == 2
    assert block.rows is problem.rows and all(view.rows is problem.rows for view in views)
    for r, view in enumerate(views):
        for name in ClientArrays._COLUMNS:
            assert np.array_equal(getattr(view, name), getattr(one, name)), name
            assert np.shares_memory(getattr(view, name), getattr(block, name)), name
    # a stage installed through a view lands in the block's rows of its run
    views[1].install([2, 0, 1], _settings())
    assert block.planned.tolist() == [0, 0, 0, 2, 0, 1]
    assert block.slice_epsilon.tolist() == [0.0, 0.0, 0.0, 0.5, 0.0, 3.0]
    assert views[1].stage == 1 and views[0].stage == 0


def test_stacked_round_reports_losses_in_the_reporting_runs_rows_only():
    # run 0 reports but selects no client, as a run that ended early; run 1
    # does not report, so its responder's loss row is NaN
    problem = _problem(num_clients=3)
    settings = _settings()
    block, views = ClientArrays.stacked([problem], 2)
    for view in views:
        view.install([2, 2, 2], settings)
    model, rng = problem.model, np.random.default_rng(0)
    gradients, losses = client_round(block, [5], model, np.zeros((2, model.dim)), 0.1,
                                     [rng] * 2, settings, np.array([True, False]),
                                     np.ones(2, bool))
    assert gradients.shape == (1, model.dim)
    assert losses.shape == (1, 2) and np.isnan(losses).all()


def test_stacked_round_refuses_a_loss_reports_non_finite_updated_weights():
    # every row's residual is 10 at w = 0, so each per-sample gradient is
    # (10, 10), clipped to about (2.83, 2.83): their mean times a rate of
    # 1e308 overflows, and the locally updated model of the loss report is
    # not finite
    data = [Dataset(np.ones((3, 1)), np.full(3, -10.0)), Dataset(np.ones((2, 1)), np.zeros(2))]
    problem = FederatedProblem(LinearRegression(1), *_block(data), _budgets([1.0, 1.0], 1e-4),
                               data[1])
    settings = _settings(clip_bound=4.0)
    block, _ = ClientArrays.stacked([problem], 1)
    block.install([2, 2], None)
    with np.errstate(over="ignore"), pytest.raises(ParameterError,
                                                   match="weights must be finite"):
        client_round(block, [0], problem.model, np.zeros((1, 2)), 1e308,
                     [np.random.default_rng(0)], settings, np.ones(1, bool), np.zeros(1, bool))


def _loss_problem(seed, classification):
    """Five clients of 1-12 rows, under a linear or a logistic model."""
    rng = np.random.default_rng(seed)
    model = LogisticRegression(3, 4) if classification else LinearRegression(3)

    def targets(m):
        return rng.integers(0, 4, size=m) if classification else rng.normal(size=m)

    data = [Dataset(rng.normal(size=(m, 3)), targets(m)) for m in (1, 7, 3, 12, 5)]
    test = Dataset(rng.normal(size=(10, 3)), targets(10))
    return FederatedProblem(model, *_block(data), _budgets([0.4, 1.0, 2.5, 0.7, 3.0], 1e-4),
                            test), data


@pytest.mark.parametrize("classification", [False, True], ids=["linear", "logistic"])
def test_stacked_round_losses_equal_local_loss(monkeypatch, classification):
    # two seeds' problems, three runs on each: runs 0, 2, 3 and 5 report
    # their losses (dpfl_bcs in stage one), runs 1 and 4 do not, and run 5
    # has no responder this round. Every reported loss is `local_loss` at the
    # run's incoming weights and at the responder's locally updated model,
    # distorted by the responder's noise, to the bit
    problems, data = zip(*(_loss_problem(seed, classification) for seed in (5, 6)))
    settings = _settings(clip_bound=0.8, loss_cap=2.0)
    report = [True, False, True, True, False, True]
    chosen = {0: [0, 1, 3], 1: [2, 4], 2: [1, 2, 4], 3: [0, 3, 4], 4: [1], 5: []}
    ids = [5 * g + n for g, clients in chosen.items() for n in clients]
    rng = np.random.default_rng(8)
    model = problems[0].model
    states = [ModelState(rng.normal(scale=0.5, size=model.dim), model) for _ in report]
    eta = 0.3

    def round_of(noised):
        block, views = ClientArrays.stacked(problems, 3)
        for view in views:
            view.install([3, 2, 4, 1, 5], settings)
        generators = [np.random.default_rng(p) for p in (0, 1)]
        return client_round(block, ids, model, np.array([s.weights for s in states]), eta,
                            [generators[g // 3] for g in range(6)], settings, np.array(report),
                            np.full(6, noised))

    # the unnoised round's releases are the responders' steps
    steps, _ = round_of(False)
    drawn = []
    real_noise = engine.sample_noise

    def recording_noise(*args):
        drawn.append(real_noise(*args))
        return drawn[-1]

    monkeypatch.setattr(engine, "sample_noise", recording_noise)
    gradients, losses = round_of(True)
    noise, = drawn
    assert len(gradients) == len(ids)
    dim = model.dim
    for i, entry in enumerate(ids):
        g, n = divmod(entry, 5)
        if not report[g]:
            assert np.isnan(losses[i]).all()
            continue
        state, rows = states[g], data[g // 3][n]
        current = local_loss(state, rows, settings.loss_cap)
        updated = local_loss(ModelState(state.weights - steps[i], state.model_kind), rows,
                             settings.loss_cap)
        assert losses[i, 0] == (eta * current + noise[i, dim]) / eta
        assert losses[i, 1] == (eta * updated + noise[i, dim + 1]) / eta
        assert gradients[i].tolist() == (steps[i] + noise[i, :dim]).tolist()


@pytest.mark.parametrize("mechanism", [GM, LM], ids=["gaussian", "laplace"])
def test_lockstep_seeds_runs_equal_runs_of_their_own(mechanism):
    # three seeds' problems in one batch; on the middle one every client
    # arrives spent, so its DP runs end in round 1 while the other seeds'
    # runs, and its own fedsgd, go on; on the last one two clients arrive
    # spent, so its uniform runs use up their plan in round 6; each run comes
    # out bit for bit as the algorithm run alone on its own problem and seed
    delta = 1e-4 if mechanism is GM else 0.0
    problems = [_problem(num_clients=5, seed=s, samples_per=20 + 5 * s) for s in range(3)]
    for p, spent in zip(problems, [(), range(5), (1, 3)]):
        p.budgets = _budgets([0.5, 1.0, 2.0, 0.8, 3.0], delta, spent=spent)
    settings = _settings(mechanism=mechanism, clients_per_round=2, total_rounds=10,
                         estimation_rounds=3, record_weights=True)
    seeds = [7, 8, 9]
    records = []
    together = engine.run_lockstep_seeds(problems, seeds, settings, engine.ALGORITHMS,
                                         records.append)
    assert len(together) == 3
    for problem, seed, results in zip(problems, seeds, together):
        assert [r.algorithm for r in results] == list(engine.ALGORITHMS)
        for got in results:
            alone = _alone(got.algorithm, problem, settings, seed)
            _assert_same_run(got, alone)
            assert got.weight_trajectory.tobytes() == alone.weight_trajectory.tobytes()
    assert [(r.ended_early, len(r.rounds)) for r in together[1]] == [
        (True, 0), (False, 10), (True, 0), (True, 0)]
    assert [(r.ended_early, len(r.rounds)) for r in together[2]] == [
        (False, 10), (False, 10), (True, 6), (True, 6)]
    assert all(len(r.rounds) == 10 for r in together[0])
    # round t's records: seeds in order, each seed's runs in algorithm order
    first = [(r.t, r.selected) for r in records[:9]]
    expected = [(1, r.rounds[0].selected) for results in together for r in results
                if r.rounds]
    assert first == expected


def test_lockstep_seeds_name_the_first_run_whose_weights_turn_non_finite(monkeypatch):
    # in round 4 an infinite release reaches seed 8's weiavg run, and in one
    # case seed 7's fedsgd run too: the batch's one finiteness check refuses
    # the round, and `run_comparison`'s rerun names the run
    real = engine.client_round
    problems = [_problem(num_clients=4, seed=s) for s in range(2)]
    settings = _settings(total_rounds=6)
    algorithms = ["fedsgd", "uniform_dp", "weiavg"]
    for poisoned in ([5], [5, 0]):
        rounds = [0]

        def poisoning(clients, ids, *args):
            gradients, losses = real(clients, ids, *args)
            rounds[0] += 1
            if rounds[0] == 4:
                run = np.asarray(ids) // 4
                for g in poisoned:
                    gradients[run == g] = np.inf
            return gradients, losses

        monkeypatch.setattr(engine, "client_round", poisoning)
        with pytest.raises(ParameterError, match="weights must be finite"):
            engine.run_lockstep_seeds(problems, [7, 8], settings, algorithms)


def test_lockstep_seeds_refuse_test_blocks_of_other_shapes():
    problems = [_problem(num_clients=3, seed=s) for s in range(2)]
    test = problems[1].test_data
    problems[1].test_data = Dataset(test.features[:50], test.targets[:50])
    with pytest.raises(ParameterError, match="test blocks must share a shape"):
        engine.run_lockstep_seeds(problems, [0, 1], _settings(), ["fedsgd"])


def test_stacked_client_arrays_of_several_problems():
    problems = [_problem(num_clients=3, seed=s, samples_per=10 + s) for s in range(2)]
    block, views = ClientArrays.stacked(problems, 2)
    assert len(views) == 4 and len(block.epsilon) == 12
    # one read-only copy of both problems' rows, problem 1's after problem 0's
    assert block.train.features.tolist() == (problems[0].train.features.tolist()
                                             + problems[1].train.features.tolist())
    assert not block.train.features.flags.writeable
    assert block.row_start.tolist() == [0, 10, 20] * 2 + [30, 41, 52] * 2
    # and one row order, problem 1's shifted past problem 0's rows
    assert block.rows.tolist() == (problems[0].rows.tolist()
                                   + (problems[1].rows + 30).tolist())
    for g, view in enumerate(views):
        problem = problems[g // 2]
        one = ClientArrays(problem.train, problem.rows, problem.num_samples, problem.budgets)
        assert view.train is problem.train and view.rows is problem.rows
        for name in ClientArrays._COLUMNS:
            assert np.array_equal(getattr(view, name), getattr(one, name)), name
        assert np.shares_memory(view.epsilon, block.epsilon)


def test_stacked_refuses_problems_of_other_shapes():
    problem = _problem(num_clients=3)
    for other in (_problem(num_clients=4), _problem(num_clients=3, feature_dim=3)):
        with pytest.raises(ParameterError, match="must share N and the model"):
            ClientArrays.stacked([problem, other], 1)
        with pytest.raises(ParameterError, match="must share N and the model"):
            engine.run_lockstep_seeds([problem, other], [0, 1], _settings(), ["fedsgd"])
    with pytest.raises(ParameterError, match="2 problems for 1 seeds"):
        engine.run_lockstep_seeds([problem, problem], [0], _settings(), ["fedsgd"])
    with pytest.raises(ParameterError, match="no problem to stack"):
        engine.run_lockstep_seeds([], [], _settings(), ["fedsgd"])


def test_zero_noise_uniform_plan_reduces_to_fedsgd():
    problem = _problem()
    settings = _settings(dp_enabled=False, force_uniform_plan=True,
                         record_weights=True)
    bcs = run_dpfl_bcs(problem, settings, seed=3)
    fed = run_baseline("fedsgd", problem, settings, seed=3)
    assert np.array_equal(bcs.weight_trajectory, fed.weight_trajectory)
    assert [r.selected for r in bcs.rounds] == [r.selected for r in fed.rounds]


def test_uniform_plan_is_the_budget_only_plan_at_equal_phi():
    # against the even split K*H / N rounded by largest remainder
    for n in range(1, 61):
        for k in range(1, n + 1):
            for horizon in (1, 2, 3, 7, 10, 17, 50, 101, 200):
                total = k * horizon
                counts = largest_remainder_round(np.full(n, total / n), total)
                plan = engine._uniform_plan(n, horizon, k)
                assert np.array_equal(plan.counts, counts)
                assert plan.probabilities.tobytes() == (counts / total).tobytes()


def test_stage_transition_and_plan_adherence():
    problem = _problem(num_clients=5)
    settings = _settings(clients_per_round=2, total_rounds=12, estimation_rounds=4)
    res = run_dpfl_bcs(problem, settings, seed=9)
    stages = [r.stage for r in res.rounds]
    assert stages == [1] * 4 + [2] * 8
    assert res.plan_stage2 is not None
    plan = res.plan_stage2
    assert (plan.horizon_rounds, plan.per_round_selected) == (8, 2)
    assert (plan.probabilities == plan.counts / (2 * 8)).all()
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
        model, *_block([data, data]),
        _budgets([0.1, 10.0], 1e-4),
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
                         lr_initial=0.1, lr_decay_horizon=120.0)
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
        settings = _settings(total_rounds=15, estimation_rounds=3, lr_initial=0.08,
                             record_weights=True)
        res = run_baseline("fedsgd", problem, settings, seed=seed)
        model = problem.model
        X, y = problem.train.features, problem.train.targets
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


@pytest.mark.parametrize("name", ["clip_bound", "loss_cap", "c2", "lr_initial",
                                  "lr_decay_horizon"])
def test_settings_reject_nan(name):
    # a NaN fails every comparison, so `x < 0` would let it through
    with pytest.raises(ParameterError, match=name):
        _settings(**{name: math.nan})


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
    budgets = _budgets([1.0, 1.0], 1e-4)
    assert FederatedProblem(model, *_block([good, good]), budgets, good).num_clients == 2
    with pytest.raises(ParameterError, match=message):
        FederatedProblem(model, *_block(clients), budgets, test)


@pytest.mark.parametrize("budgets", [
    _budgets([1.0] * 3, 1e-4),
    _budgets([[1.0, 1.0]], 1e-4),
    PrivacyBudget.fresh(1.0, 1e-4),
    [PrivacyBudget.fresh(1.0, 1e-4)] * 2,
], ids=["three_entries", "two_dimensional", "scalar", "list_of_budgets"])
def test_problem_needs_one_budget_column_entry_per_client(budgets):
    data = Dataset(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ParameterError, match=re.escape("budgets must be columns of shape (2,)")):
        FederatedProblem(LinearRegression(2), *_block([data, data]), budgets, data)


@pytest.mark.parametrize("num_samples, num_budgets, message", [
    pytest.param([[3, 3]], 2, "num_samples must be", id="two_dimensional"),
    pytest.param(np.zeros(0, dtype=int), 0, "num_samples must be", id="empty"),
    pytest.param([3.0, 3.0], 2, "num_samples must be", id="non_integer"),
    pytest.param([6, 0], 2, "num_samples must be", id="zero_entry"),
    pytest.param([7, -1], 2, "num_samples must be", id="negative_entry"),
    pytest.param([3, 4], 2, "num_samples must be", id="sum_above_rows"),
    pytest.param([2, 3], 2, "num_samples must be", id="sum_below_rows"),
    # wraps to 6 in uint64 arithmetic
    pytest.param(np.array([2**64 - 1, 7], dtype=np.uint64), 2, "num_samples must be",
                 id="sum_wraps"),
    pytest.param([3, 3], 3, re.escape("budgets must be columns of shape (2,)"),
                 id="budgets_of_another_length"),
])
def test_problem_needs_row_counts_that_cover_the_block(num_samples, num_budgets, message):
    data = Dataset(np.zeros((6, 2)), np.zeros(6))
    budgets = _budgets([1.0] * num_budgets, 1e-4)
    assert FederatedProblem(LinearRegression(2), data, np.arange(6), [3, 3],
                            _budgets([1.0] * 2, 1e-4), data).num_clients == 2
    with pytest.raises(ParameterError, match=message):
        FederatedProblem(LinearRegression(2), data, np.arange(6), num_samples, budgets, data)


@pytest.mark.parametrize("rows", [
    pytest.param(np.arange(5), id="shorter"),
    pytest.param(np.arange(7) % 6, id="longer"),
    pytest.param(np.array([0, 1, 2, 3, 4, 6]), id="past_the_rows"),
    pytest.param(np.array([-1, 1, 2, 3, 4, 5]), id="negative"),
    pytest.param(np.arange(6.0), id="float"),
    pytest.param(np.ones(6, dtype=bool), id="bool"),
    pytest.param(np.arange(6)[None], id="two_dimensional"),
])
def test_problem_needs_a_row_order_of_the_block(rows):
    # the round gathers every client's rows through the order, so it must be
    # integer row numbers of the block, one entry per training row
    data = Dataset(np.zeros((6, 2)), np.zeros(6))
    budgets = _budgets([1.0] * 2, 1e-4)
    assert FederatedProblem(LinearRegression(2), data, np.arange(6)[::-1], [3, 3], budgets,
                            data).num_clients == 2
    with pytest.raises(ParameterError, match="rows must be a 1-d integer column of the 6 "):
        FederatedProblem(LinearRegression(2), data, rows, [3, 3], budgets, data)


# -------------------------------------------------------------- ledger checks

def test_undercharging_ledger_fails_the_run(monkeypatch):
    consume = engine.consume_budget

    def undercharge(budget, per_round_epsilon, per_round_delta=0.0):
        return consume(budget, per_round_epsilon / 2, per_round_delta)

    monkeypatch.setattr(engine, "consume_budget", undercharge)
    with pytest.raises(StateError, match="slices charged"):
        run_baseline("uniform_dp", _problem(), _settings(), seed=0)


def test_selection_of_a_non_candidate_fails_the_run(monkeypatch):
    # a sampler fault: every selection also takes its run's first client
    # that is not a candidate, here one whose stage-one plan ran out during
    # the run. The round trains every client selected, so the ledger fails
    # the run, and a comparison names the run that failed.
    real = engine.sample_selection

    def forcing(probabilities, candidates, k, generators):
        ids = real(probabilities, candidates, k, generators)
        n = probabilities.shape[1]
        selecting = set((ids // n).tolist())
        extra = [g * n + int(np.argmin(row)) for g, row in enumerate(candidates)
                 if g in selecting and not row.all()]
        return np.union1d(ids, extra)

    monkeypatch.setattr(engine, "sample_selection", forcing)
    cfg = ExperimentConfig(algorithm="uniform_dp", num_clients=6, clients_per_round=2,
                           total_rounds=30, estimation_rounds=3, num_samples=300,
                           test_samples=50, feature_dim=2, seed=1)
    with pytest.raises(StateError, match=re.escape("clients [0] exceeded their stage-1 plan")):
        run_single(cfg)
    with pytest.raises(StateError, match=re.escape(
            "algorithm 'uniform_dp' failed at seed 1: clients [0] exceeded their stage-1 plan")):
        run_comparison(cfg, ["uniform_dp"], num_seeds=2)


def _spent_clients():
    data = [Dataset(np.zeros((2, 1)), np.zeros(2))] * 3
    clients = _clients(data, _budgets([1.0] * 3, 1e-3))
    clients.install([2, 2, 2], _settings())
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
