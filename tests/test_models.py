"""Model-kind oracles: finite-difference gradients and closed-form losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpflsim.errors import ParameterError
from dpflsim.models import LinearRegression, LogisticRegression, ModelState, with_intercept


def _fd_gradient(model, weights, features, targets, h=1e-6):
    grad = np.zeros_like(weights)
    for j in range(len(weights)):
        up = weights.copy()
        up[j] += h
        down = weights.copy()
        down[j] -= h
        f_up = model.per_sample_losses(up, features, targets).mean()
        f_down = model.per_sample_losses(down, features, targets).mean()
        grad[j] = (f_up - f_down) / (2 * h)
    return grad


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    for case in range(100):
        if case % 2 == 0:
            model = LinearRegression(int(rng.integers(1, 5)))
            targets = rng.normal(size=6)
        else:
            classes = int(rng.integers(2, 5))
            model = LogisticRegression(int(rng.integers(1, 5)), classes)
            targets = rng.integers(0, classes, size=6)
        weights = rng.normal(scale=0.8, size=model.dim)
        features = rng.normal(size=(6, model.feature_dim))
        analytic = model.per_sample_gradients(weights, features, targets).mean(axis=0)
        numeric = _fd_gradient(model, weights, features, targets)
        scale = max(np.linalg.norm(numeric), 1.0)
        assert np.linalg.norm(analytic - numeric) / scale < 1e-5


# The per-sample gradient fills the models used before their gradients were
# built from output-gradient factors, kept as the bit-level reference.

def _reference_linear_gradients(model, weights, features, targets):
    resid = model.predict(weights, features) - targets
    grads = np.empty((len(targets), model.dim))
    grads[:, :-1] = 2.0 * resid[:, None] * features
    grads[:, -1] = 2.0 * resid
    return grads


def _reference_logistic_gradients(model, weights, features, targets):
    probs = model._probs(weights, features)
    dlogits = probs.copy()
    dlogits[np.arange(len(targets)), targets.astype(int)] -= 1.0
    grads = np.empty((len(targets), model.num_classes, model.feature_dim + 1))
    grads[:, :, :-1] = dlogits[:, :, None] * features[:, None, :]
    grads[:, :, -1] = dlogits
    return grads.reshape(len(targets), model.dim)


def test_gradients_are_outer_products_of_output_gradients():
    rng = np.random.default_rng(12)
    for case in range(300):
        rows = int(rng.integers(1, 30))
        feature_dim = int(rng.integers(1, 8))
        if case % 2 == 0:
            model = LinearRegression(feature_dim)
            targets = rng.normal(scale=3.0, size=rows)
            reference = _reference_linear_gradients
            width = 1
        else:
            width = int(rng.integers(2, 7))
            model = LogisticRegression(feature_dim, width)
            targets = rng.integers(0, width, size=rows)
            reference = _reference_logistic_gradients
        weights = rng.normal(scale=rng.uniform(0.1, 5.0), size=model.dim)
        features = rng.normal(scale=rng.uniform(0.1, 10.0), size=(rows, feature_dim))
        expected = reference(model, weights, features, targets)
        factors = model.output_gradients(weights, features, targets)
        assert factors.shape == (rows, width)
        inputs = np.column_stack([features, np.ones(rows)])
        assert np.array_equal(with_intercept(features), inputs)
        outer = (factors[:, :, None] * inputs[:, None, :]).reshape(rows, model.dim)
        assert np.array_equal(outer, expected)
        assert np.array_equal(model.per_sample_gradients(weights, features, targets),
                              expected)


def _slice_outputs(model, weights, features, targets):
    """(output gradients, per-sample losses) of one weight vector on one row
    slice, written out as a plain expression of that slice."""
    if isinstance(model, LinearRegression):
        resid = features @ weights[:-1] + weights[-1] - targets
        return 2.0 * resid[:, None], resid * resid
    picked = (np.arange(len(targets)), targets.astype(int))
    probs = model._probs(weights, features)
    losses = -np.log(np.maximum(probs[picked], 1e-12))
    probs[picked] -= 1.0
    return probs, losses


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.integers(1, 8), st.integers(2, 11), st.integers(1, 400),
       st.lists(st.tuples(st.integers(0, 399), st.integers(0, 120)), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_segmented_outputs_equal_per_slice_expressions(classification, feature_dim, classes,
                                                       rows, segments, seed):
    # segments at any row offset, odd ones included, and overlapping: each
    # segment's rows have the bits of the plain expression on its own slice,
    # whose BLAS product a product over more rows would not reproduce
    gen = np.random.default_rng(seed)
    if classification:
        model = LogisticRegression(feature_dim, classes)
        targets = gen.integers(0, classes, size=rows).astype(float)
    else:
        model = LinearRegression(feature_dim)
        targets = gen.normal(scale=3.0, size=rows)
    features = gen.normal(scale=gen.uniform(0.1, 10.0), size=(rows, feature_dim))
    starts = [min(lo, rows - 1) for lo, _ in segments]
    ends = [min(lo + size, rows) for lo, (_, size) in zip(starts, segments)]
    weights = gen.normal(scale=gen.uniform(0.1, 30.0), size=(len(starts), model.dim))
    seg_targets = np.concatenate([targets[lo:hi] for lo, hi in zip(starts, ends)])
    gradients = model.outputs(weights, features, seg_targets, starts, ends)
    losses = model.outputs(weights, features, seg_targets, starts, ends, losses=True)
    at = 0
    for w, lo, hi in zip(weights, starts, ends):
        expected = _slice_outputs(model, w, features[lo:hi], targets[lo:hi])
        assert gradients[at:at + hi - lo].tobytes() == expected[0].tobytes()
        assert losses[at:at + hi - lo].tobytes() == expected[1].tobytes()
        at += hi - lo
    assert at == len(gradients) == len(losses)


def _metrics_of_one(model, weights, features, targets) -> tuple:
    """`metrics` of one run's (dim,) weights on one test block, as floats
    (None for no accuracy), through a batch of one."""
    loss, accuracy = model.metrics(weights[None, None], features[None], targets[None])
    assert loss.shape == (1, 1)
    return float(loss[0, 0]), None if accuracy is None else float(accuracy[0, 0])


def test_metrics_equal_mean_loss_and_accuracy():
    # one softmax pass in metrics gives exactly the separate computations
    rng = np.random.default_rng(13)
    for case in range(300):
        rows = int(rng.integers(1, 60))
        classes = int(rng.integers(2, 11))
        model = LogisticRegression(int(rng.integers(1, 8)), classes)
        # large weights push some picked probabilities under the log floor
        weights = rng.normal(scale=[0.1, 1.0, 30.0][case % 3], size=model.dim)
        features = rng.normal(size=(rows, model.feature_dim))
        targets = rng.integers(0, classes, size=rows).astype(float if case % 2 else int)
        loss, accuracy = _metrics_of_one(model, weights, features, targets)
        assert loss == float(np.mean(model.per_sample_losses(weights, features, targets)))
        assert accuracy == float(np.mean(model.predict(weights, features)
                                         == targets.astype(int)))


@pytest.mark.parametrize("classification", [False, True])
def test_stacked_metrics_equal_calls_of_their_own(classification):
    # A runs' weights on each of S seeds' test blocks in one call: entry
    # [s, a] has the bits of run a's own call on block s, and of the mean of
    # its per-sample losses
    rng = np.random.default_rng(18)
    for case in range(100):
        seeds, runs = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        rows, feature_dim = int(rng.integers(1, 300)), int(rng.integers(1, 8))
        if classification:
            model = LogisticRegression(feature_dim, int(rng.integers(2, 11)))
            targets = rng.integers(0, model.num_classes, size=(seeds, rows))
        else:
            model = LinearRegression(feature_dim)
            targets = rng.normal(size=(seeds, rows))
        features = rng.normal(scale=3.0, size=(seeds, rows, feature_dim))
        weights = rng.normal(scale=[0.1, 1.0, 30.0][case % 3], size=(seeds, runs, model.dim))
        loss, accuracy = model.metrics(weights, features, targets)
        assert loss.shape == (seeds, runs)
        assert (accuracy is None) == (not classification)
        for s in range(seeds):
            for a in range(runs):
                one = _metrics_of_one(model, weights[s, a], features[s], targets[s])
                assert loss[s, a] == one[0] == float(np.mean(model.per_sample_losses(
                    weights[s, a], features[s], targets[s])))
                if classification:
                    assert accuracy[s, a] == one[1] == float(np.mean(model.predict(
                        weights[s, a], features[s]) == targets[s]))


def test_linear_regression_perfect_fit_has_zero_loss():
    rng = np.random.default_rng(3)
    model = LinearRegression(4)
    w = rng.normal(size=5)
    X = rng.normal(size=(30, 4))
    y = X @ w[:-1] + w[-1]
    assert model.per_sample_losses(w, X, y).max() < 1e-18
    mse, acc = _metrics_of_one(model, w, X, y)
    assert mse == pytest.approx(0.0, abs=1e-18)
    assert acc is None


def test_logistic_uniform_at_zero_weights():
    model = LogisticRegression(3, 10)
    w = model.init_weights()
    X = np.random.default_rng(4).normal(size=(20, 3))
    y = np.arange(20) % 10
    losses = model.per_sample_losses(w, X, y)
    assert np.allclose(losses, math.log(10.0))
    ce, acc = _metrics_of_one(model, w, X, y)
    assert ce == pytest.approx(math.log(10.0))
    assert 0.0 <= acc <= 1.0


def test_logistic_probs_are_stable_for_large_logits():
    model = LogisticRegression(2, 3)
    w = np.full(model.dim, 50.0)
    X = np.array([[100.0, -100.0]])
    losses = model.per_sample_losses(w, X, np.array([1]))
    assert np.all(np.isfinite(losses))


def test_model_state_validation():
    model = LinearRegression(2)
    state = ModelState(np.zeros(3), model)
    new = ModelState(np.ones(3), model)
    assert np.array_equal(new.weights, np.ones(3))
    assert np.array_equal(state.weights, np.zeros(3))
    with pytest.raises(ParameterError):
        ModelState(np.zeros(4), model)
    with pytest.raises(ParameterError):
        ModelState(np.array([np.inf, 0.0, 0.0]), model)
    with pytest.raises(ParameterError):
        LogisticRegression(3, 1)
    for make in (lambda: LinearRegression(0), lambda: LogisticRegression(0, 3)):
        with pytest.raises(ParameterError, match="feature_dim must be >= 1, got 0"):
            make()
