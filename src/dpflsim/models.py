"""Convex model kinds: linear regression (squared error) and multinomial
logistic regression. Both expose per-sample losses and per-sample gradients so
the engine can clip each sample's gradient before averaging.

Both models have rank-one per-sample gradients: sample i's gradient is the
outer product of its output gradient a_i (the derivative of the loss with
respect to the model's outputs) with its input [x_i, 1], flattened row by
row. `output_gradients` returns the factors a_i and `outer_rows` builds the
gradients from them, so a gradient's norm is known before it is built.

`outputs` computes output gradients or per-sample losses for several
segments of rows, each at weights of its own, in one call; the one-segment
case is `output_gradients` and `per_sample_losses`. It makes one BLAS call
per weight vector and row slice, `features[lo:hi] @ weights[s]`, into one
preallocated array, and everything after the product (intercepts, residual
or softmax, loss, scaling) once over all segments. The product alone stays
per slice because its bits depend on the slice it is computed in: on a
2-vCPU Xeon with OpenBLAS 0.3.31 (Haswell kernels), `(X @ w)[a:b]` differed
from `X[a:b] @ w` in 433 of 102,263 rows (332 of 2,000 random slices), so a
product over the stacked rows would move seeded outputs. Each segment's rows
thus come out with the bits of a call on that segment alone."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_LOG_FLOOR = 1e-12


def with_intercept(features: np.ndarray) -> np.ndarray:
    """[x_i, 1] for every row: the input the weights (and their gradients) see."""
    rows, width = features.shape
    out = np.empty((rows, width + 1))
    out[:, :-1] = features
    out[:, -1] = 1.0
    return out


def _segment_products(features, matrices, starts, ends) -> np.ndarray:
    """One array whose rows are, segment by segment, features[starts[s]:ends[s]]
    @ matrices[s], each block from one `np.matmul` of its own."""
    out = np.empty((sum(ends) - sum(starts),) + matrices.shape[2:])
    at = 0
    for lo, hi, matrix in zip(starts, ends, matrices):
        np.matmul(features[lo:hi], matrix, out=out[at:at + hi - lo])
        at += hi - lo
    return out


def outer_rows(factors: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """(rows, m * k) matrix whose row i is factors[i] (m) outer inputs[i] (k), flattened."""
    # einsum writes the products in one pass; broadcasting a (rows, m, 1) by a
    # (rows, 1, k) array runs a k-long inner loop and is about 1.4x slower
    shape = (len(factors), factors.shape[1] * inputs.shape[1])
    return np.einsum("ij,ik->ijk", factors, inputs).reshape(shape)


class LinearRegression:
    """y ~ x . coef + intercept, squared-error loss; weights = [coef, intercept]."""

    is_classification = False

    def __init__(self, feature_dim: int):
        if feature_dim < 1:
            raise ParameterError(f"feature_dim must be >= 1, got {feature_dim}")
        self.feature_dim = int(feature_dim)

    @property
    def dim(self) -> int:
        return self.feature_dim + 1

    def init_weights(self) -> np.ndarray:
        return np.zeros(self.dim)

    def predict(self, weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        return features @ weights[:-1] + weights[-1]

    def outputs(self, weights, features, targets, starts, ends, losses=False) -> np.ndarray:
        """Output gradients (rows, 1), d loss / d prediction = 2 * residual,
        or with `losses` the per-sample losses (rows,), of S segments:
        segment s is rows starts[s]:ends[s] of `features` at weights[s] of the
        (S, dim) `weights`. The result's rows are the segments' in order, and
        targets[j] is the target of its row j."""
        out = _segment_products(features, weights[:, :-1], starts, ends)
        out += np.repeat(weights[:, -1], np.subtract(ends, starts))
        out -= targets
        if losses:
            out *= out
            return out
        out *= 2.0
        return out[:, None]

    def per_sample_losses(self, weights, features, targets) -> np.ndarray:
        return self.outputs(weights[None], features, targets, [0], [len(features)], True)

    def output_gradients(self, weights, features, targets) -> np.ndarray:
        """(rows, 1): d loss / d prediction = 2 * residual."""
        return self.outputs(weights[None], features, targets, [0], [len(features)])

    def per_sample_gradients(self, weights, features, targets) -> np.ndarray:
        return outer_rows(self.output_gradients(weights, features, targets),
                          with_intercept(features))

    def metrics(self, weights, features, targets) -> tuple:
        """(mean test losses, None) of A runs' weights on each of S test
        blocks: `weights` is (S, A, dim), `features` (S, rows, feature_dim)
        and `targets` (S, rows), and the losses an (S, A) array whose [s, a]
        is run a's on block s, with the bits of a batch of that run alone."""
        # one gemv per (seed, run) slice, as one run's `features @ weights`;
        # the residuals and their squares overwrite the predictions
        losses = np.matmul(features[:, None], weights[..., :-1, None])[..., 0]
        losses += weights[..., -1:]
        losses -= targets[:, None]
        losses *= losses
        # the sum over the count is np.mean's arithmetic without its layers of calls
        return losses.sum(axis=-1) / losses.shape[-1], None


class LogisticRegression:
    """Multinomial logistic regression with per-class intercepts.

    weights flatten a (num_classes, feature_dim + 1) matrix, last column the
    intercepts. At the zero vector every class is equally likely, so the
    per-sample loss is ln(num_classes).
    """

    is_classification = True

    def __init__(self, feature_dim: int, num_classes: int):
        if feature_dim < 1:
            raise ParameterError(f"feature_dim must be >= 1, got {feature_dim}")
        if num_classes < 2:
            raise ParameterError(f"num_classes must be >= 2, got {num_classes}")
        self.feature_dim = int(feature_dim)
        self.num_classes = int(num_classes)

    @property
    def dim(self) -> int:
        return self.num_classes * (self.feature_dim + 1)

    def init_weights(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _probs(self, weights, features) -> np.ndarray:
        """Class probabilities of the rows of `features` at `weights`: (rows,
        classes) for one (dim,) weight vector, or (..., rows, classes) for
        stacked weights (..., dim) over features that broadcast with them."""
        w = self._matrices(weights)
        return _softmax(np.matmul(features, np.swapaxes(w[..., :-1], -1, -2))
                        + w[..., None, :, -1])

    def _matrices(self, weights) -> np.ndarray:
        """(..., classes, feature_dim + 1) views of (..., dim) weights."""
        return weights.reshape(weights.shape[:-1] + (self.num_classes, self.feature_dim + 1))

    def predict(self, weights, features) -> np.ndarray:
        return np.argmax(self._probs(weights, features), axis=1)

    def outputs(self, weights, features, targets, starts, ends, losses=False) -> np.ndarray:
        """Output gradients (rows, num_classes), d loss / d logits = softmax -
        one-hot(target), or with `losses` the per-sample losses (rows,), of S
        segments: segment s is rows starts[s]:ends[s] of `features` at
        weights[s] of the (S, dim) `weights`. The result's rows are the
        segments' in order, and targets[j] is the label of its row j."""
        w = self._matrices(weights)
        logits = _segment_products(features, np.swapaxes(w[..., :-1], -1, -2), starts, ends)
        logits += np.repeat(w[..., -1], np.subtract(ends, starts), axis=0)
        probs = _softmax(logits)
        picked = (np.arange(len(probs)), targets.astype(int))
        if losses:
            return _nll(probs[picked])
        probs[picked] -= 1.0
        return probs

    def per_sample_losses(self, weights, features, targets) -> np.ndarray:
        return self.outputs(weights[None], features, targets, [0], [len(features)], True)

    def output_gradients(self, weights, features, targets) -> np.ndarray:
        """(rows, num_classes): d loss / d logits = softmax - one-hot(target)."""
        return self.outputs(weights[None], features, targets, [0], [len(features)])

    def per_sample_gradients(self, weights, features, targets) -> np.ndarray:
        # gradient wrt w[c] is dlogits[:, c] * [x, 1]
        return outer_rows(self.output_gradients(weights, features, targets),
                          with_intercept(features))

    def metrics(self, weights, features, targets) -> tuple:
        """(mean test losses, accuracies) of A runs' weights on each of S
        test blocks: `weights` is (S, A, dim), `features` (S, rows,
        feature_dim) and `targets` (S, rows), and each result an (S, A) array
        whose [s, a] is run a's on block s, with the bits of a batch of that
        run alone."""
        # one softmax pass serves both the loss and the accuracy
        probs = self._probs(weights, features[:, None])
        labels = targets.astype(int)
        # each (seed, run, row)'s probability of its label, as one gather
        runs, rows = probs.shape[1:3]
        picked = probs.reshape(-1, self.num_classes)[
            np.arange(probs.size // self.num_classes), labels.repeat(runs, axis=0).ravel()]
        losses = _nll(picked).reshape(probs.shape[:3])
        loss = losses.sum(axis=-1) / rows
        # a count over the rows is np.mean's exact sum of ones
        accuracy = (probs.argmax(axis=-1) == labels[:, None]).sum(axis=-1) / rows
        return loss, accuracy


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, overwriting `logits`."""
    # a max is exact in any order, so a running maximum over the columns
    # gives the row max's bits without a reduction over the short axis;
    # exp is elementwise and runs in place, and the row sum keeps its order
    top = logits[..., 0].copy()
    for c in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., c], out=top)
    logits -= top[..., None]
    np.exp(logits, out=logits)
    return logits / logits.sum(axis=-1, keepdims=True)


def _nll(picked: np.ndarray) -> np.ndarray:
    """-ln of the picked class probabilities, floored before the log."""
    return -np.log(np.maximum(picked, _LOG_FLOOR))


@dataclass(frozen=True)
class ModelState:
    """Current weights plus the model kind that interprets them."""

    weights: np.ndarray
    model_kind: LinearRegression | LogisticRegression

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (self.model_kind.dim,):
            raise ParameterError(
                f"weights have shape {weights.shape}, model needs ({self.model_kind.dim},)")
        if not np.isfinite(weights).all():
            raise ParameterError("weights must be finite")
