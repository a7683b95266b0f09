"""Phi_n and Lambda against a frozen reference.

`_reference_compute_phi_lambda` is a copy of `compute_phi_lambda` as it was
when it looped over per-client records (`_Client` here). The current code
evaluates the same scalar formula over client columns, so every Phi_n must
equal the reference's exactly, with the arrays a run and the roster pass
(float64 budgets, int64 sample counts) and with the lists the offline replay
passes.
numpy's vectorised `log` and `**2` round differently from `math.log` and
Python's `**` for some inputs, and the sample is required to contain such
inputs, so a vectorised rewrite of the formula fails here.
"""

import math
import re
from collections import namedtuple

import numpy as np
import pytest

from dpflsim.errors import ParameterError
from dpflsim.mechanisms import MechanismKind
from dpflsim.selection import compute_phi_lambda

GM = MechanismKind.GAUSSIAN
LM = MechanismKind.LAPLACE

_Client = namedtuple("_Client", "client_id epsilon delta num_samples")


def _reference_compute_phi_lambda(mechanism, model_dim, clip_bound, c2, clients):
    if not isinstance(mechanism, MechanismKind):
        raise ParameterError("mechanism must be a MechanismKind")
    if model_dim < 1:
        raise ParameterError("model_dim must be >= 1")
    if clip_bound <= 0 or c2 <= 0:
        raise ParameterError("clip_bound and c2 must be positive")
    if not clients:
        raise ParameterError("clients list is empty")
    phi = np.empty(len(clients))
    if mechanism is MechanismKind.GAUSSIAN:
        lam = 4.0 * clip_bound**2 * model_dim * c2**2
        for i, m in enumerate(clients):
            if not 0 < m.delta < 1:
                raise ParameterError(
                    f"client {m.client_id}: Gaussian mechanism needs delta in (0,1), got {m.delta}")
            phi[i] = math.log(1.0 / m.delta) / (m.num_samples**2 * m.epsilon**2)
    else:
        lam = 8.0 * model_dim * clip_bound**2
        for i, m in enumerate(clients):
            phi[i] = 1.0 / (m.num_samples**2 * m.epsilon**2)
    return lam, phi


def _instance(rng):
    """Client columns over the config ranges, as `sample_budgets` and the
    partition produce them."""
    mechanism = GM if rng.random() < 0.5 else LM
    n = int(rng.integers(1, 501))
    eps_min = rng.uniform(0.05, 5.0)
    epsilon = rng.uniform(eps_min, eps_min * rng.uniform(1.0, 20.0), n)
    if mechanism is GM:
        delta_min = 10 ** rng.uniform(-7, -3)
        delta = rng.uniform(delta_min, min(0.5, delta_min * rng.uniform(1.0, 100.0)), n)
    else:
        delta = np.zeros(n)
    samples = np.exp(rng.uniform(0.0, math.log(20_000), n)).astype(np.int64)
    settings = dict(mechanism=mechanism, model_dim=int(rng.integers(1, 60)),
                    clip_bound=float(rng.uniform(0.1, 5.0)), c2=float(rng.uniform(0.5, 3.0)))
    return settings, epsilon, delta, samples


def test_phi_is_bit_identical_to_reference():
    rng = np.random.default_rng(2408)
    log_differs = square_differs = 0
    for _ in range(300):
        settings, epsilon, delta, samples = _instance(rng)
        clients = [_Client(i, e, d, s) for i, (e, d, s) in
                   enumerate(zip(epsilon.tolist(), delta.tolist(), samples.tolist()))]
        lam_ref, phi_ref = _reference_compute_phi_lambda(clients=clients, **settings)
        lam, phi = compute_phi_lambda(epsilon=epsilon.tolist(), delta=delta.tolist(),
                                      num_samples=samples.tolist(), **settings)
        assert lam == lam_ref and phi.dtype == phi_ref.dtype
        assert (phi == phi_ref).all()
        lam, phi = compute_phi_lambda(epsilon=epsilon, delta=delta, num_samples=samples,
                                      **settings)
        assert lam == lam_ref and (phi == phi_ref).all()
        # the replan's subset, named by client id
        active = np.flatnonzero(rng.random(len(epsilon)) < 0.7)
        if len(active):
            _, phi = compute_phi_lambda(epsilon=epsilon[active], delta=delta[active],
                                        num_samples=samples[active], client_ids=active,
                                        **settings)
            assert (phi == phi_ref[active]).all()
        if settings["mechanism"] is GM:
            log_differs += int((np.log(1.0 / delta)
                                != [math.log(1.0 / d) for d in delta.tolist()]).sum())
        square_differs += int((epsilon**2 != [e**2 for e in epsilon.tolist()]).sum())
    # the sample holds inputs on which a numpy rewrite would change Phi_n
    assert log_differs + square_differs > 0


@pytest.mark.parametrize("mechanism", [GM, LM], ids=["gaussian", "laplace"])
def test_phi_columns_equal_the_per_client_loop(mechanism):
    # a wide-bcs sized roster: every Phi_n equals the per-client Python
    # expression bit for bit, on a sample where numpy's square (and, for
    # Gaussian, its log) would change some of them
    rng = np.random.default_rng(2025)
    n = 10_000
    epsilon = rng.uniform(0.5, 8.0, n)
    delta = 10 ** rng.uniform(-7, -0.3, n) if mechanism is GM else np.zeros(n)
    samples = rng.integers(1, 20_000, n)
    _, phi = compute_phi_lambda(mechanism, 6, 1.0, 1.0, epsilon, delta, samples)
    if mechanism is GM:
        loop = [math.log(1.0 / d) / (m**2 * e**2)
                for e, d, m in zip(epsilon.tolist(), delta.tolist(), samples.tolist())]
        assert (np.log(1.0 / delta) != [math.log(1.0 / d) for d in delta.tolist()]).any()
    else:
        loop = [1.0 / (m**2 * e**2) for e, m in zip(epsilon.tolist(), samples.tolist())]
    assert (epsilon * epsilon != [e**2 for e in epsilon.tolist()]).any()
    assert phi.dtype == np.float64 and phi.tobytes() == np.array(loop).tobytes()


@pytest.mark.parametrize("change, message", [
    (dict(delta=[1e-5, 0.0]), "client 1: Gaussian mechanism needs delta in (0,1), got 0.0"),
    (dict(delta=[1e-5, 1.0]), "client 1: Gaussian mechanism needs delta in (0,1), got 1.0"),
    (dict(epsilon=[1.0, math.inf]), "client 1: epsilon must be positive, got inf"),
    (dict(epsilon=[math.nan, 1.0]), "client 0: epsilon must be positive, got nan"),
    (dict(epsilon=[1.0, 0.0]), "client 1: epsilon must be positive, got 0.0"),
    (dict(num_samples=[0, 5]), "client 0: num_samples must be >= 1, got 0"),
    (dict(client_ids=[3, 7], delta=[1e-5, 0.0]), "client 7: Gaussian mechanism"),
    (dict(epsilon=[], delta=[], num_samples=[]), "clients list is empty"),
    (dict(delta=[1e-5]), "vectors of one length"),
    # Laplace takes delta = 0 (client 0) but no delta outside [0, 1)
    (dict(mechanism=LM, delta=[0.0, 2.0]), "client 1: delta must lie in [0, 1), got 2.0"),
    (dict(mechanism=LM, delta=[0.0, -0.5]), "client 1: delta must lie in [0, 1), got -0.5"),
])
def test_phi_columns_check_every_client(change, message):
    columns = dict(mechanism=GM, epsilon=[1.0, 2.0], delta=[1e-5, 1e-4], num_samples=[5, 5])
    columns.update(change)
    with pytest.raises(ParameterError, match=re.escape(message)):
        compute_phi_lambda(model_dim=2, clip_bound=1.0, c2=1.0, **columns)
