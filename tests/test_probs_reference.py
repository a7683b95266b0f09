"""`LogisticRegression._probs` against a frozen copy of its earlier body.

`_reference_probs` subtracts the row max taken with one `keepdims` reduction
and divides a fresh `exp` array by its row sums, as `_probs` did before it
took the max as a running maximum over the columns and the `exp` in place.
The two must agree byte for byte, so every seeded classification output is
unchanged.
"""

import numpy as np

from dpflsim.models import LogisticRegression


def _reference_probs(model, weights, features):
    w = weights.reshape(model.num_classes, model.feature_dim + 1)
    logits = features @ w[:, :-1].T + w[:, -1]
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


def _instances(count=300, seed=20261018):
    """(model, weights, features): rows 1-3,000, 2-11 classes, feature widths
    1-8, and weights scaled log-uniformly over 1e-3..1e3, so the logits run
    from nearly equal to far enough apart that exp underflows to zero."""
    gen = np.random.default_rng(seed)
    for _ in range(count):
        rows = int(gen.integers(1, 3001))
        model = LogisticRegression(int(gen.integers(1, 9)), int(gen.integers(2, 12)))
        weights = gen.normal(size=model.dim) * 10.0 ** gen.uniform(-3, 3)
        yield model, weights, gen.normal(size=(rows, model.feature_dim))


def test_probs_are_bit_identical_to_reference():
    instances = list(_instances())
    assert {m.num_classes for m, _, _ in instances} == set(range(2, 12))
    underflow = 0
    for model, weights, features in instances:
        got = model._probs(weights, features)
        ref = _reference_probs(model, weights, features)
        assert got.shape == ref.shape == (len(features), model.num_classes)
        assert got.tobytes() == ref.tobytes(), (model.num_classes, len(features))
        underflow += bool((ref == 0.0).any())
    # the widest scales push some probabilities to exactly zero
    assert underflow > 0
