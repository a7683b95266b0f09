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


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if value <= 0:
        raise ParameterError(f"{name} must be positive, got {value!r}")
    return value


def _check_nonnegative(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if value < 0:
        raise ParameterError(f"{name} must be nonnegative, got {value!r}")
    return value


def _check_rounds(name: str, value) -> int:
    if value != int(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ParameterError(f"{name} must be >= 1, got {value}")
    return value


# Array counterparts of the checks above, for the engine's per-round batches.
# The scalar checks stay separate so per-client scalar calls keep their cost.

def _any_array(*values) -> bool:
    return any(isinstance(v, np.ndarray) for v in values)


def _check_finite_array(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{name} must be finite")
    return values


def _check_positive_array(name: str, values) -> np.ndarray:
    values = _check_finite_array(name, values)
    if not np.all(values > 0):
        raise ParameterError(f"{name} must be positive")
    return values


def _check_nonnegative_array(name: str, values) -> np.ndarray:
    values = _check_finite_array(name, values)
    if not np.all(values >= 0):
        raise ParameterError(f"{name} must be nonnegative")
    return values


def _check_rounds_array(name: str, values) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        if not np.all(values == np.round(values)):
            raise ParameterError(f"{name} must be integers")
        values = values.astype(int)
    if not np.all(values >= 1):
        raise ParameterError(f"{name} must be >= 1")
    return values


@dataclass(frozen=True)
class PrivacyBudget:
    """Total and remaining (epsilon, delta) for one client, or for several
    clients when every field is an array of the same length."""

    epsilon: float
    delta: float
    epsilon_remaining: float
    delta_remaining: float

    def __post_init__(self):
        if isinstance(self.epsilon_remaining, np.ndarray):
            self._check_arrays()
            return
        _check_positive("epsilon", self.epsilon)
        _check_nonnegative("delta", self.delta)
        if self.delta >= 1:
            raise ParameterError(f"delta must be < 1, got {self.delta}")
        _check_nonnegative("epsilon_remaining", self.epsilon_remaining)
        _check_nonnegative("delta_remaining", self.delta_remaining)
        if self.epsilon_remaining > self.epsilon * (1 + 1e-12):
            raise ParameterError("epsilon_remaining exceeds the total epsilon")
        if self.delta_remaining > self.delta * (1 + 1e-12) + 1e-300:
            raise ParameterError("delta_remaining exceeds the total delta")

    def _check_arrays(self) -> None:
        eps = _check_positive_array("epsilon", self.epsilon)
        delta = _check_nonnegative_array("delta", self.delta)
        eps_rem = _check_nonnegative_array("epsilon_remaining", self.epsilon_remaining)
        delta_rem = _check_nonnegative_array("delta_remaining", self.delta_remaining)
        if not eps.shape == delta.shape == eps_rem.shape == delta_rem.shape:
            raise ParameterError("budget arrays must have equal shapes")
        if not np.all(delta < 1):
            raise ParameterError("delta must be < 1")
        if not np.all(eps_rem <= eps * (1 + 1e-12)):
            raise ParameterError("epsilon_remaining exceeds the total epsilon")
        if not np.all(delta_rem <= delta * (1 + 1e-12) + 1e-300):
            raise ParameterError("delta_remaining exceeds the total delta")

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
        if isinstance(self.scale, np.ndarray):
            self._check_arrays()
            return
        _check_nonnegative("sensitivity", self.sensitivity)
        _check_nonnegative("scale", self.scale)
        _check_positive("per_round_epsilon", self.per_round_epsilon)
        _check_nonnegative("per_round_delta", self.per_round_delta)
        _check_rounds("planned_rounds", self.planned_rounds)

    def _check_arrays(self) -> None:
        fields = (_check_nonnegative_array("sensitivity", self.sensitivity),
                  _check_nonnegative_array("scale", self.scale),
                  _check_positive_array("per_round_epsilon", self.per_round_epsilon),
                  _check_nonnegative_array("per_round_delta", self.per_round_delta),
                  _check_rounds_array("planned_rounds", self.planned_rounds))
        if len({f.shape for f in fields}) != 1 or fields[0].ndim != 1:
            raise ParameterError("noise spec arrays must be 1-d with equal lengths")


@dataclass(frozen=True)
class ClipConfig:
    """Per-sample gradient clipping ball: L2 for Gaussian, L1 for Laplace."""

    bound: float
    norm_kind: str

    def __post_init__(self):
        _check_positive("bound", self.bound)
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
    if _any_array(sensitivity, total_epsilon, total_delta, planned_rounds):
        sensitivity = _check_nonnegative_array("sensitivity", sensitivity)
        total_epsilon = _check_positive_array("total_epsilon", total_epsilon)
        total_delta = _check_finite_array("total_delta", total_delta)
        if not np.all((total_delta > 0) & (total_delta < 1)):
            raise ParameterError("total_delta must lie in (0, 1)")
        planned_rounds = _check_rounds_array("planned_rounds", planned_rounds)
        c2 = _check_positive("c2", c2)
        return (c2 * sensitivity * np.sqrt(planned_rounds * np.log(1.0 / total_delta))
                / total_epsilon)
    sensitivity = _check_nonnegative("sensitivity", sensitivity)
    total_epsilon = _check_positive("total_epsilon", total_epsilon)
    total_delta = _check_finite("total_delta", total_delta)
    if not 0 < total_delta < 1:
        raise ParameterError(f"total_delta must lie in (0, 1), got {total_delta}")
    planned_rounds = _check_rounds("planned_rounds", planned_rounds)
    c2 = _check_positive("c2", c2)
    return c2 * sensitivity * math.sqrt(planned_rounds * math.log(1.0 / total_delta)) / total_epsilon


def laplace_scale(sensitivity: float, total_epsilon: float, planned_rounds) -> float:
    """Per-coordinate Laplace scale b = planned_rounds * sensitivity / total_epsilon.

    Array arguments give one scale per entry.
    """
    if _any_array(sensitivity, total_epsilon, planned_rounds):
        sensitivity = _check_nonnegative_array("sensitivity", sensitivity)
        total_epsilon = _check_positive_array("total_epsilon", total_epsilon)
        planned_rounds = _check_rounds_array("planned_rounds", planned_rounds)
        return planned_rounds * sensitivity / total_epsilon
    sensitivity = _check_nonnegative("sensitivity", sensitivity)
    total_epsilon = _check_positive("total_epsilon", total_epsilon)
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
    learning_rate = _check_nonnegative("learning_rate", learning_rate)
    clip_bound = _check_positive("clip_bound", clip_bound)
    if isinstance(num_samples, np.ndarray):
        num_samples = _check_rounds_array("num_samples", num_samples)
    else:
        num_samples = _check_rounds("num_samples", num_samples)
    loss_cap = _check_nonnegative("loss_cap", loss_cap)
    sens = 2.0 * learning_rate * clip_bound / num_samples
    if include_loss_terms:
        sens += 2.0 * learning_rate * loss_cap / num_samples
    return sens


def sample_noise(spec: NoiseSpec, dimension, rng: np.random.Generator) -> np.ndarray:
    """Draw one i.i.d. noise vector for a round's release.

    A zero scale yields an exactly zero vector without touching the generator.
    An array spec gives a (clients, dimension) matrix: zero-scale rows are
    zero, and the other rows are drawn in row order with one generator call,
    bit-identical to one scalar call per row.
    """
    dimension = _check_rounds("dimension", dimension)
    if isinstance(spec.scale, np.ndarray):
        out = np.zeros((len(spec.scale), dimension))
        drawn = spec.scale > 0.0
        if np.any(drawn):
            scale = spec.scale[drawn][:, None]
            size = (len(scale), dimension)
            if spec.mechanism is MechanismKind.GAUSSIAN:
                out[drawn] = rng.normal(0.0, scale, size=size)
            else:
                out[drawn] = rng.laplace(0.0, scale, size=size)
        return out
    if spec.scale == 0.0:
        return np.zeros(dimension)
    if spec.mechanism is MechanismKind.GAUSSIAN:
        return rng.normal(0.0, spec.scale, size=dimension)
    return rng.laplace(0.0, spec.scale, size=dimension)


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
    learning_rate = _check_nonnegative("learning_rate", learning_rate)
    clip_bound = _check_positive("clip_bound", clip_bound)
    dimension = _check_rounds("dimension", dimension)
    planned_rounds = _check_rounds("planned_rounds", planned_rounds)
    num_samples = _check_rounds("num_samples", num_samples)
    c2 = _check_positive("c2", c2)
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
    if isinstance(budget.epsilon_remaining, np.ndarray):
        per_round_epsilon = _check_nonnegative_array("per_round_epsilon", per_round_epsilon)
        per_round_delta = _check_nonnegative_array("per_round_delta", per_round_delta)
        clamp = np.maximum
    else:
        per_round_epsilon = _check_nonnegative("per_round_epsilon", per_round_epsilon)
        per_round_delta = _check_nonnegative("per_round_delta", per_round_delta)
        clamp = max
    new_eps = budget.epsilon_remaining - per_round_epsilon
    new_delta = budget.delta_remaining - per_round_delta
    floor = EXHAUSTION_REL_TOL * budget.epsilon + EXHAUSTION_ABS_TOL
    exhausted = new_eps <= floor
    out = replace(
        budget,
        epsilon_remaining=clamp(0.0, new_eps),
        delta_remaining=clamp(0.0, new_delta),
    )
    return out, exhausted
