"""Noise calibration, sampling, gradient clipping, and privacy-budget accounting.

A client that participates in `planned_rounds` rounds under a total budget
(epsilon, delta) adds per-round noise calibrated by linear composition:

    Gaussian: sigma = c2 * sensitivity * sqrt(planned_rounds * ln(1/delta)) / epsilon
    Laplace:  b     = planned_rounds * sensitivity / epsilon   (per coordinate)

Per-round sensitivity of the released update eta_t * clipped-mean-gradient is
2 * eta_t * clip_bound / num_samples, plus 2 * eta_t * loss_cap / num_samples
when the round additionally releases two distorted loss scalars.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .models import outer_rows

# Remaining budget at or below this relative floor counts as exhausted; float
# dust from summing T equal slices is ~1e-13 relative, real slices are >= 1/T.
EXHAUSTION_REL_TOL = 1e-9
EXHAUSTION_ABS_TOL = 1e-15


class MechanismKind(enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"

    @property
    def noise_exponent(self) -> int:
        """Exponent z of the participation count in the per-client noise energy."""
        return 1 if self is MechanismKind.GAUSSIAN else 2

    @property
    def clip_norm(self) -> str:
        """Norm whose ball bounds per-sample gradients for this mechanism."""
        return "l2" if self is MechanismKind.GAUSSIAN else "l1"

    @classmethod
    def parse(cls, name: str) -> "MechanismKind":
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise ParameterError(
                f"unknown mechanism {name!r}; expected 'gaussian' or 'laplace'"
            ) from None


# kind -> (lowest allowed value, whether that value itself is excluded,
# exclusive upper limit); a finite lowest value and the exclusive upper limit
# also reject NaN and infinities
_RANGES = {
    "positive": (0.0, True, math.inf),
    "nonnegative": (0.0, False, math.inf),
    "at least 1": (1.0, False, math.inf),
    "in (0, 1)": (0.0, True, 1.0),
    "in [0, 1)": (0.0, False, 1.0),
}
_ndarray = np.ndarray  # bound once: the scalar branch of `_check` runs per budget built


def _check(name: str, value, kind: str, like=None, at_most=None):
    """`value` as a float, or as a float array if it is an array, after
    checking that every entry is finite, `kind` (a key of `_RANGES`) and, if
    given, at most the matching entry of `at_most`.

    With `like` given, `value` must have the shape of `like`. This is the one
    place that tells scalars from arrays; the scalar branch stays on plain
    floats because budgets are built one client at a time.
    """
    low, strict, high = _RANGES[kind]
    if isinstance(value, _ndarray) or isinstance(like, _ndarray):
        value = np.asarray(value, dtype=float)
        if like is not None and np.shape(like) != value.shape:
            raise ParameterError(f"{name} must have shape {np.shape(like)}, "
                                 f"got {value.shape}")
        ok = ((value > low) if strict else (value >= low)) & (value < high)
        if at_most is not None:
            ok &= value <= at_most
        ok = ok.all()
    else:
        value = float(value)
        ok = ((low < value < high) if strict else (low <= value < high)) and (
            at_most is None or value <= at_most)
    if not ok:
        bound = "" if at_most is None else f" and at most {at_most!r}"
        raise ParameterError(f"{name} must be {kind}{bound}, got {value!r}")
    return value


def _check_rounds(name: str, value, like=None):
    """`value` as an int, or as an int array if it is an array, after
    checking that every entry is a whole number >= 1."""
    checked = _check(name, value, "at least 1", like)
    if isinstance(value, _ndarray):
        if value.dtype.kind not in "iu":
            if not np.all(checked == np.round(checked)):
                raise ParameterError(f"{name} must be whole numbers")
            value = checked.astype(int)
        return value
    if checked != int(checked):
        raise ParameterError(f"{name} must be a whole number, got {value!r}")
    return int(checked)


@dataclass(frozen=True)
class PrivacyBudget:
    """Total and remaining (epsilon, delta) for one client, or for several
    clients when every field is an array of the same length."""

    epsilon: float
    delta: float
    epsilon_remaining: float
    delta_remaining: float

    def __post_init__(self):
        eps = _check("epsilon", self.epsilon, "positive")
        delta = _check("delta", self.delta, "in [0, 1)", like=eps)
        # the remaining budget may not exceed the total
        _check("epsilon_remaining", self.epsilon_remaining, "nonnegative", like=eps,
               at_most=eps * (1 + 1e-12))
        _check("delta_remaining", self.delta_remaining, "nonnegative", like=eps,
               at_most=delta * (1 + 1e-12) + 1e-300)

    @classmethod
    def fresh(cls, epsilon: float, delta: float = 0.0) -> "PrivacyBudget":
        return cls(float(epsilon), float(delta), float(epsilon), float(delta))

    @property
    def exhausted(self) -> bool:
        floor = EXHAUSTION_REL_TOL * self.epsilon + EXHAUSTION_ABS_TOL
        return self.epsilon_remaining <= floor


@dataclass(frozen=True)
class NoiseSpec:
    """Resolved per-round noise parameters for one client in one stage, or
    for several clients when every numeric field is an array of one length."""

    mechanism: MechanismKind
    sensitivity: float
    scale: float
    per_round_epsilon: float
    per_round_delta: float
    planned_rounds: int

    def __post_init__(self):
        if not isinstance(self.mechanism, MechanismKind):
            raise ParameterError("mechanism must be a MechanismKind")
        scale = _check("scale", self.scale, "nonnegative")
        _check("sensitivity", self.sensitivity, "nonnegative", like=scale)
        _check("per_round_epsilon", self.per_round_epsilon, "positive", like=scale)
        _check("per_round_delta", self.per_round_delta, "nonnegative", like=scale)
        _check_rounds("planned_rounds", self.planned_rounds, like=scale)


@dataclass(frozen=True)
class ClipConfig:
    """Per-sample gradient clipping ball: L2 for Gaussian, L1 for Laplace."""

    bound: float
    norm_kind: str

    def __post_init__(self):
        _check("bound", self.bound, "positive")
        if self.norm_kind not in ("l1", "l2"):
            raise ParameterError(f"norm_kind must be 'l1' or 'l2', got {self.norm_kind!r}")

    @classmethod
    def for_mechanism(cls, mechanism: MechanismKind, bound: float) -> "ClipConfig":
        return cls(bound=float(bound), norm_kind=mechanism.clip_norm)


def gaussian_sigma(sensitivity: float, total_epsilon: float, total_delta: float,
                   planned_rounds, c2: float = 1.0) -> float:
    """Per-coordinate Gaussian noise std for `planned_rounds` releases.

    sigma = c2 * sensitivity * sqrt(planned_rounds * ln(1/total_delta)) / total_epsilon.
    Calibrated as an equality; the classical c1-based precondition on the
    per-release epsilon is intentionally not checked. Array arguments give
    one sigma per entry.
    """
    sensitivity = _check("sensitivity", sensitivity, "nonnegative")
    total_epsilon = _check("total_epsilon", total_epsilon, "positive")
    total_delta = _check("total_delta", total_delta, "in (0, 1)")
    planned_rounds = _check_rounds("planned_rounds", planned_rounds)
    c2 = _check("c2", c2, "positive")
    return (c2 * sensitivity * np.sqrt(planned_rounds * np.log(1.0 / total_delta))
            / total_epsilon)


def laplace_scale(sensitivity: float, total_epsilon: float, planned_rounds) -> float:
    """Per-coordinate Laplace scale b = planned_rounds * sensitivity / total_epsilon.

    Array arguments give one scale per entry.
    """
    sensitivity = _check("sensitivity", sensitivity, "nonnegative")
    total_epsilon = _check("total_epsilon", total_epsilon, "positive")
    planned_rounds = _check_rounds("planned_rounds", planned_rounds)
    return planned_rounds * sensitivity / total_epsilon


def gradient_sensitivity(mechanism: MechanismKind, learning_rate: float, clip_bound: float,
                         num_samples, loss_cap: float = 0.0,
                         include_loss_terms: bool = False) -> float:
    """Sensitivity of one client's released round output.

    The gradient-only release has sensitivity 2 * eta * clip_bound / num_samples
    (swapping one sample moves the clipped mean by at most 2 * clip_bound / D in
    the mechanism's norm). When the round also releases the two distorted loss
    scalars, the joint release adds 2 * eta * loss_cap / num_samples. An
    array of sample counts gives one sensitivity per entry.
    """
    if not isinstance(mechanism, MechanismKind):
        raise ParameterError("mechanism must be a MechanismKind")
    learning_rate = _check("learning_rate", learning_rate, "nonnegative")
    clip_bound = _check("clip_bound", clip_bound, "positive")
    num_samples = _check_rounds("num_samples", num_samples)
    loss_cap = _check("loss_cap", loss_cap, "nonnegative")
    sens = 2.0 * learning_rate * clip_bound / num_samples
    if include_loss_terms:
        sens += 2.0 * learning_rate * loss_cap / num_samples
    return sens


def sample_noise(spec: NoiseSpec, dimension, rng: np.random.Generator) -> np.ndarray:
    """Draw the i.i.d. noise of a round's release.

    A scalar spec gives one (dimension,) vector, an array spec a (clients,
    dimension) matrix. Zero-scale rows are exactly zero and draw nothing; the
    other rows are drawn in row order with one generator call, bit-identical
    to one call per row.
    """
    dimension = _check_rounds("dimension", dimension)
    scale = np.asarray(spec.scale, dtype=float)
    out = np.zeros(scale.shape + (dimension,))
    drawn = scale > 0.0
    if np.any(drawn):
        scale = scale[drawn][:, None]
        draw = rng.normal if spec.mechanism is MechanismKind.GAUSSIAN else rng.laplace
        out[drawn] = draw(0.0, scale, size=(len(scale), dimension))
    return out


def expected_noise_sq_norm(mechanism: MechanismKind, learning_rate: float, clip_bound: float,
                           dimension, planned_rounds, budget: PrivacyBudget,
                           num_samples, c2: float = 1.0) -> float:
    """E||Z||^2 for one round's gradient-only release under the total budget.

    Gaussian: 4 * eta^2 * B^2 * d * c2^2 * T * ln(1/delta) / (D^2 * epsilon^2)
    Laplace:  8 * d * B^2 * eta^2 * T^2 / (D^2 * epsilon^2)

    Equals dimension * sigma^2 (Gaussian) or dimension * 2 b^2 (Laplace) with
    the scale calibrated from the gradient-only sensitivity.
    """
    if not isinstance(mechanism, MechanismKind):
        raise ParameterError("mechanism must be a MechanismKind")
    learning_rate = _check("learning_rate", learning_rate, "nonnegative")
    clip_bound = _check("clip_bound", clip_bound, "positive")
    dimension = _check_rounds("dimension", dimension)
    planned_rounds = _check_rounds("planned_rounds", planned_rounds)
    num_samples = _check_rounds("num_samples", num_samples)
    c2 = _check("c2", c2, "positive")
    eps = budget.epsilon
    if mechanism is MechanismKind.GAUSSIAN:
        if not 0 < budget.delta < 1:
            raise ParameterError("Gaussian budget needs delta in (0, 1)")
        return (4.0 * learning_rate**2 * clip_bound**2 * dimension * c2**2
                * planned_rounds * math.log(1.0 / budget.delta)
                / (num_samples**2 * eps**2))
    if budget.delta != 0.0:
        raise ParameterError("Laplace budget needs delta = 0")
    return (8.0 * dimension * clip_bound**2 * learning_rate**2 * planned_rounds**2
            / (num_samples**2 * eps**2))


def _row_norms(matrix: np.ndarray, norm_kind: str) -> np.ndarray:
    if norm_kind == "l2":
        return np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    return np.sum(np.abs(matrix), axis=1)


def clip_per_sample_gradient(gradient: np.ndarray, config: ClipConfig) -> np.ndarray:
    """Project one per-sample gradient onto the clipping ball.

    Vectors already inside the ball are returned unchanged (bit-identical);
    others are rescaled to norm config.bound.
    """
    gradient = np.asarray(gradient, dtype=float)
    if gradient.ndim != 1:
        raise ParameterError(f"gradient must be 1-d, got shape {gradient.shape}")
    norm = _row_norms(gradient[None, :], config.norm_kind)[0]
    if not math.isfinite(norm):
        raise ParameterError("gradient has non-finite entries")
    if norm <= config.bound:
        return gradient
    out = gradient * (config.bound / norm)
    # One or two refinement passes absorb rounding so the output never exceeds
    # the bound and a second clip call is a bitwise no-op.
    for _ in range(4):
        n = _row_norms(out[None, :], config.norm_kind)[0]
        if n <= config.bound:
            break
        out = out * (config.bound / n)
    return out


def clip_gradient_matrix(gradients: np.ndarray, config: ClipConfig) -> np.ndarray:
    """Row-wise clipping of a (num_samples, dim) per-sample gradient matrix."""
    gradients = np.asarray(gradients, dtype=float)
    if gradients.ndim != 2:
        raise ParameterError(f"gradients must be 2-d, got shape {gradients.shape}")
    if not np.all(np.isfinite(gradients)):
        raise ParameterError("gradients have non-finite entries")
    out = gradients * _clip_factors(_row_norms(gradients, config.norm_kind), config)[:, None]
    return _refine_clipped(out, config)


def clip_outer_rows(factors: np.ndarray, inputs: np.ndarray, config: ClipConfig) -> np.ndarray:
    """Row-wise clipping of `outer_rows(factors, inputs)`, from its factors.

    The l1 and l2 norms of a rank-one row factor exactly,
    ||a (x) u|| = ||a|| * ||u||, so each factor row a_i is scaled by
    min(1, bound / (||a_i|| * ||u_i||)) and the clipped (rows, m * k) matrix
    is built once. Rows inside the ball are bit-identical to
    `clip_gradient_matrix` of the built matrix; clipped rows agree with it to
    rounding and pass the same refinement, so no row's norm exceeds the bound.
    """
    factors = np.asarray(factors, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if factors.ndim != 2 or inputs.ndim != 2 or len(factors) != len(inputs):
        raise ParameterError(
            f"factors and inputs must be 2-d with equal rows, got shapes "
            f"{factors.shape} and {inputs.shape}")
    if not (np.isfinite(factors).all() and np.isfinite(inputs).all()):
        raise ParameterError("gradients have non-finite entries")
    norms = _row_norms(factors, config.norm_kind) * _row_norms(inputs, config.norm_kind)
    out = outer_rows(factors * _clip_factors(norms, config)[:, None], inputs)
    return _refine_clipped(out, config)


def _clip_factors(norms: np.ndarray, config: ClipConfig) -> np.ndarray:
    """min(1, bound / norm) per row, exactly 1 inside the ball."""
    factors = np.ones_like(norms)
    over = norms > config.bound
    factors[over] = config.bound / norms[over]
    return factors


def _refine_clipped(out: np.ndarray, config: ClipConfig) -> np.ndarray:
    """Rescale, in place, the rows that rounding left just outside the ball.

    A rescale can itself land an ulp outside, so the rows still over the
    bound are rescaled again, at most four times, as in
    `clip_per_sample_gradient`.
    """
    norms = _row_norms(out, config.norm_kind)
    rows = np.arange(len(out))
    for _ in range(4):
        over = norms > config.bound
        if not over.any():
            break
        rows = rows[over]
        out[rows] *= (config.bound / norms[over])[:, None]
        norms = _row_norms(out[rows], config.norm_kind)
    return out


def consume_budget(budget: PrivacyBudget, per_round_epsilon: float,
                   per_round_delta: float = 0.0) -> tuple[PrivacyBudget, bool]:
    """Deduct one round's slice; returns (new budget, exhausted flag).

    Remaining values clamp at zero. The exhausted flag trips when the remaining
    epsilon falls to (or below) a 1e-9-relative floor, absorbing float dust
    from repeated equal slices. A budget with array fields takes array slices
    and deducts every entry at once; the flag is then an array too.
    """
    per_round_epsilon = _check("per_round_epsilon", per_round_epsilon, "nonnegative")
    per_round_delta = _check("per_round_delta", per_round_delta, "nonnegative")
    new_eps = budget.epsilon_remaining - per_round_epsilon
    new_delta = budget.delta_remaining - per_round_delta
    floor = EXHAUSTION_REL_TOL * budget.epsilon + EXHAUSTION_ABS_TOL
    exhausted = new_eps <= floor
    out = replace(
        budget,
        epsilon_remaining=np.maximum(0.0, new_eps),
        delta_remaining=np.maximum(0.0, new_delta),
    )
    return out, exhausted
