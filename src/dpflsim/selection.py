"""Selection-plan optimization and convergence-bound parameter estimation.

The per-client noise energy after T_n participations scales like T_n^z * Phi_n
(z = 1 Gaussian, z = 2 Laplace), with

    Gaussian: Lambda = 4 * Xi^2 * d * c2^2,  Phi_n = ln(1/delta_n) / (D_n^2 eps_n^2)
    Laplace:  Lambda = 8 * d * Xi^2,         Phi_n = 1 / (D_n^2 eps_n^2)

The plan objective is J(T_1..T_N) = Omega_A * sum T_n^{z+1} Phi_n
+ Omega_B * sum T_n Gamma_n subject to sum T_n = K * horizon, T_n integer;
its continuous relaxation is solved in closed form when Gamma = 0 and by
water-filling bisection on the KKT multiplier otherwise.

Its functions take values that their three callers have checked: the
engine's replan, `dpflsim plan` and the offline replay
(`harness.estimate_from_history`). They keep only the checks that depend on
computed values or guard input no caller sees first: the budget columns in
`compute_phi_lambda`, an overflowed Phi_n in `approximate_plan`, the plan
counts, the fitted coefficients and the water-fill's omegas and scale.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import EvaluationError, ParameterError
from .mechanisms import MechanismKind

logger = logging.getLogger(__name__)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# L > mu enforced as L >= mu * (1 + MARGIN) during the fit's coordinate steps.
_LM_MARGIN = 1e-6

# The fit's coordinates, in the order it steps through them and passes them
# to `_bound_terms`; L_smooth and mu_convex bound each other's box.
_FIT_ORDER = ("init_dist_sq", "gamma", "sigma_sq", "L_smooth", "mu_convex")
_L_SMOOTH, _MU_CONVEX = _FIT_ORDER.index("L_smooth"), _FIT_ORDER.index("mu_convex")

# The fit's search box [0, _FIT_BOX_UPPER] per coordinate, its golden-section
# tolerance, its sweep limit and the residual at which it stops.
_FIT_BOX_UPPER = 1e6
_FIT_GOLDEN_TOL = 1e-8
_FIT_MAX_SWEEPS = 60
_FIT_RESIDUAL_TOL = 1e-9

# The percentile at which `winsorize_upper` caps the stage-two plan's
# per-client loss-gap estimates.
WINSORIZE_PERCENTILE = 95.0


@dataclass(frozen=True)
class SelectionPlan:
    """Participation counts T_n over a horizon; p_n = T_n / (K * horizon)."""

    counts: np.ndarray
    horizon_rounds: int
    per_round_selected: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            if not (np.isfinite(counts).all() and (counts == np.round(counts)).all()):
                raise ParameterError("plan counts must be whole numbers")
        counts = np.asarray(counts, dtype=int)
        object.__setattr__(self, "counts", counts)
        if self.horizon_rounds < 1:
            raise ParameterError("horizon_rounds must be >= 1")
        if self.per_round_selected < 1:
            raise ParameterError("per_round_selected must be >= 1")
        total = self.per_round_selected * self.horizon_rounds
        if counts.min(initial=0) < 0:
            raise ParameterError("plan counts must be nonnegative")
        if int(counts.sum()) != total:
            raise ParameterError(
                f"plan counts sum to {int(counts.sum())}, expected K*horizon = {total}")

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / (self.horizon_rounds * self.per_round_selected)


@dataclass(frozen=True)
class StageOneLog:
    """What the server observed during the estimation stage.

    selected[t-1] is the set S_t; loss_current[t-1][n] is the distorted
    F_n at the incoming global model, loss_updated[t-1][n] the distorted F_n
    at the client's locally updated model, both for n in S_t. The three
    lists have one entry per round and each round's maps are keyed by its
    ids, as `from_rounds` builds them.
    """

    selected: tuple
    loss_current: tuple
    loss_updated: tuple

    def __post_init__(self):
        sel = tuple(tuple(sorted(int(i) for i in s)) for s in self.selected)
        cur = tuple(dict(d) for d in self.loss_current)
        upd = tuple(dict(d) for d in self.loss_updated)
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "loss_current", cur)
        object.__setattr__(self, "loss_updated", upd)

    @classmethod
    def from_rounds(cls, losses) -> "StageOneLog":
        """The log of the stage-one rounds given in order, each as a map client
        id -> (loss at the incoming model, loss at the updated model), the
        shape of `RoundRecord.losses`. No estimator reads a map's key order."""
        rounds = [dict(r) for r in losses]
        return cls(tuple(tuple(r) for r in rounds),
                   tuple({n: pair[0] for n, pair in r.items()} for r in rounds),
                   tuple({n: pair[1] for n, pair in r.items()} for r in rounds))

    @property
    def num_rounds(self) -> int:
        return len(self.selected)

    def counters(self, through_round: int, num_clients: int) -> np.ndarray:
        """C_n = number of appearances in S_1..S_through_round."""
        counts = np.zeros(num_clients, dtype=int)
        for s in self.selected[:through_round]:
            for n in s:
                counts[n] += 1
        return counts


@dataclass(frozen=True)
class EstimatedParams:
    """Everything the bound evaluation and the plan solver need."""

    gamma_hat_n: np.ndarray
    rho_min_hat: float
    Lambda: float
    phi_n: np.ndarray
    gamma: float
    L_smooth: float
    mu_convex: float
    sigma_sq: float
    init_dist_sq: float
    omega_a: float
    omega_b: float
    fit_residual: float = math.nan
    residual_history: tuple = field(default_factory=tuple)

    def __post_init__(self):
        gh = np.asarray(self.gamma_hat_n, dtype=float)
        ph = np.asarray(self.phi_n, dtype=float)
        object.__setattr__(self, "gamma_hat_n", gh)
        object.__setattr__(self, "phi_n", ph)
        object.__setattr__(self, "residual_history", tuple(self.residual_history))

    @property
    def num_clients(self) -> int:
        return len(self.phi_n)

    def to_dict(self) -> dict:
        return {
            "gamma_hat_n": self.gamma_hat_n.tolist(),
            "rho_min_hat": float(self.rho_min_hat),
            "Lambda": float(self.Lambda),
            "phi_n": self.phi_n.tolist(),
            "gamma": float(self.gamma),
            "L_smooth": float(self.L_smooth),
            "mu_convex": float(self.mu_convex),
            "sigma_sq": float(self.sigma_sq),
            "init_dist_sq": float(self.init_dist_sq),
            "omega_a": float(self.omega_a),
            "omega_b": float(self.omega_b),
            "fit_residual": float(self.fit_residual),
            "residual_history": [float(r) for r in self.residual_history],
        }


def largest_remainder_round(values: np.ndarray, total: int) -> np.ndarray:
    """Round a nonnegative vector to integers that sum to `total`.

    Floors every entry, then hands the leftover units to the largest
    fractional parts (ties broken by index); for values that sum to `total`,
    each entry moves by < 1. The floors alone exceed `total` only when the
    values sum above it by at least one whole unit, which
    `water_fill_continuous` allows by up to N - 1 units, or when `total` is
    negative: then the surplus units are taken back one at a time from the
    smallest fractional parts (ties broken by index), skipping zero floors,
    and ParameterError is raised if the floors cannot cover them, as it is
    for values at or above 2**63, whose floors would not fit an int.
    """
    values = np.asarray(values, dtype=float)
    # NaN fails both comparisons
    if not ((values >= -1e-9) & (values < 2.0**63)).all():
        raise ParameterError(f"values must be finite, nonnegative and below 2**63, got "
                             f"[{values.min()}, {values.max()}]")
    values = np.maximum(values, 0.0)
    floors = np.floor(values).astype(int)
    remainder = int(total) - int(floors.sum())
    if remainder < 0:
        # the values exceed total by a whole unit or more (float noise alone
        # never gets here: the floors sum to at most the values' sum), or
        # total is negative; trim the smallest fractions
        order = np.lexsort((np.arange(len(values)), values - floors))
        for idx in order:
            if remainder == 0:
                break
            if floors[idx] > 0:
                floors[idx] -= 1
                remainder += 1
        if remainder < 0:
            raise ParameterError("cannot round values down to the requested total")
        return floors
    fracs = values - floors
    order = np.lexsort((np.arange(len(values)), -fracs))
    floors[order[:remainder]] += 1
    return floors


def compute_phi_lambda(mechanism: MechanismKind, model_dim: int, clip_bound: float,
                       c2: float, epsilon, delta, num_samples,
                       client_ids=None) -> tuple[float, np.ndarray]:
    """Noise-energy constants: Lambda and Phi_n for client columns.

    epsilon[i], delta[i] and num_samples[i] describe client client_ids[i]
    (by default client i); error messages name that id. Every epsilon must
    be positive, every delta in [0, 1) (in (0, 1) for the Gaussian
    mechanism) and every sample count at least 1. model_dim counts
    the d base model coordinates; the two stage-one loss slots raise
    sensitivity, not Phi_n. Phi_n equals the per-client Python expression
    bit for bit: numpy's vectorised log and square round differently from
    `math.log` and `pow` in the last bit for some inputs, so those two are
    applied one client at a time, and the rest is numpy's elementwise IEEE
    arithmetic (sample counts below 2**26 square exactly in floats).
    """
    if not isinstance(mechanism, MechanismKind):
        raise ParameterError("mechanism must be a MechanismKind")
    if model_dim < 1:
        raise ParameterError("model_dim must be >= 1")
    if not (math.isfinite(clip_bound) and clip_bound > 0 and math.isfinite(c2) and c2 > 0):
        raise ParameterError(f"clip_bound and c2 must be positive and finite, got "
                             f"clip_bound={clip_bound}, c2={c2}")
    eps = np.asarray(epsilon, dtype=float)
    dlt = np.asarray(delta, dtype=float)
    samples = np.asarray(num_samples)
    if eps.ndim != 1 or not eps.shape == dlt.shape == samples.shape:
        raise ParameterError("epsilon, delta and num_samples must be vectors of one length")
    if len(eps) == 0:
        raise ParameterError("clients list is empty")
    gaussian = mechanism is MechanismKind.GAUSSIAN
    ok = np.isfinite(eps) & (eps > 0) & (samples >= 1) & (dlt < 1)
    ok &= (dlt > 0) if gaussian else (dlt >= 0)
    if not ok.all():
        i = int(np.argmin(ok))
        name = client_ids[i] if client_ids is not None else i
        if not (math.isfinite(eps[i]) and eps[i] > 0):
            raise ParameterError(f"client {name}: epsilon must be positive, got {eps[i]}")
        if not samples[i] >= 1:
            raise ParameterError(f"client {name}: num_samples must be >= 1, "
                                 f"got {samples[i]}")
        if gaussian:
            raise ParameterError(
                f"client {name}: Gaussian mechanism needs delta in (0,1), got {dlt[i]}")
        raise ParameterError(f"client {name}: delta must lie in [0, 1), got {dlt[i]}")
    # n**2 * e**2 with e**2 from libm's pow; the products and the quotients
    # are IEEE operations, which numpy rounds as Python does
    denominators = samples.astype(float)**2 * np.array(list(map(pow, eps.tolist(), repeat(2))))
    if gaussian:
        lam = 4.0 * clip_bound**2 * model_dim * c2**2
        return lam, np.array(list(map(math.log, (1.0 / dlt).tolist()))) / denominators
    lam = 8.0 * model_dim * clip_bound**2
    return lam, 1.0 / denominators


def approximate_plan(phi_n: np.ndarray, budget_rounds: int, z: int,
                     per_round_selected: int = 1) -> SelectionPlan:
    """Budget-only plan: T_n proportional to Phi_n^(-1/z), summing to budget_rounds.

    Closed form of the noise-term-only allocation
    T_n = budget_rounds / sum_m (Phi_n / Phi_m)^(1/z), rounded by largest
    remainder.
    """
    phi_n = np.asarray(phi_n, dtype=float)
    if np.any(phi_n <= 0) or np.any(~np.isfinite(phi_n)):
        raise ParameterError("all phi_n must be positive and finite")
    weights = phi_n ** (-1.0 / z)
    cont = budget_rounds * weights / weights.sum()
    counts = largest_remainder_round(cont, budget_rounds)
    return SelectionPlan(counts, budget_rounds // per_round_selected, per_round_selected)


def estimate_gamma_n(log: StageOneLog, num_clients: int) -> np.ndarray:
    """Per-client non-IID degree estimate.

    For clients observed during stage one, the minimum over their rounds of
    |loss_current - loss_updated|; for everyone else, the arithmetic mean of
    the observed clients' values.
    """
    best: dict[int, float] = {}
    for s, cur, upd in zip(log.selected, log.loss_current, log.loss_updated):
        for n in s:
            gap = abs(cur[n] - upd[n])
            if n not in best or gap < best[n]:
                best[n] = gap
    fallback = float(np.mean(list(best.values())))
    out = np.full(num_clients, fallback)
    for n, gap in best.items():
        out[n] = gap
    return out


def estimate_rho_min(log: StageOneLog, K: int, T0: int) -> float:
    """Selection-skew lower-bound estimate from stage-one observations.

    rho = sum_n C_n * F_n / (K * (T0-1) * F_bar) with C_n counting the first
    T0-1 rounds, F_bar the mean reported loss of round T0's participants, and
    unreported clients assigned F_bar. Local optima are taken as 0. A
    nonpositive F_bar yields the neutral value 1.0 with a warning.
    """
    f_bar = observed_stage_loss(log, T0)
    if f_bar <= 0.0:
        logger.warning("nonpositive mean reported loss %.3g at round %d; "
                       "returning neutral skew 1.0", f_bar, T0)
        return 1.0
    counts: dict[int, int] = {}
    for s in log.selected[:T0 - 1]:
        for n in s:
            counts[n] = counts.get(n, 0) + 1
    report = log.loss_current[T0 - 1]
    numerator = 0.0
    for n, c in sorted(counts.items()):
        numerator += c * (report[n] if n in report else f_bar)
    return numerator / (K * (T0 - 1) * f_bar)


def _client_sums(counts: np.ndarray, gamma_hat_n: np.ndarray, phi_n: np.ndarray,
                 z: int) -> tuple[float, float, float]:
    """The bound's three client sums: sum gamma_hat_n, sum C_n^{z+1} Phi_n and
    sum C_n gamma_hat_n. None depends on the fitted parameters, so a fit
    computes them once."""
    return (float(np.sum(gamma_hat_n)), float(np.sum(counts ** (z + 1) * phi_n)),
            float(np.sum(counts * gamma_hat_n)))


def _bound_terms(init_dist_sq: float, gamma: float, sigma_sq: float, L: float, mu: float,
                 sums: tuple[float, float, float], rho_min_hat: float, Lambda: float,
                 elapsed: int, K: int, num_clients: int) -> float:
    """Predicted global-loss bound after `elapsed` rounds from `_client_sums`;
    inf when undefined. The fit calls it positionally, the five fitted
    parameters first, in the order of `_FIT_ORDER`."""
    if mu <= 0 or L <= 0:
        return math.inf
    g_tau = gamma + elapsed
    if g_tau <= 0:
        return math.inf
    gamma_sum, noise_sum, bias_sum = sums
    init_term = L * gamma / (2.0 * g_tau) * init_dist_sq
    skew_term = -3.0 * L * rho_min_hat / (2.0 * mu * num_clients) * gamma_sum
    sgd_term = 4.0 * L * sigma_sq / (mu * mu * K * g_tau)
    noise_term = noise_sum * 4.0 * L * Lambda / (K * K * mu * mu * g_tau * elapsed)
    bias_term = (bias_sum / elapsed
                 * (4.0 * L * L / (K * mu * mu * g_tau) + 3.0 * L / (2.0 * K * mu)))
    return init_term + skew_term + sgd_term + noise_term + bias_term


def predicted_loss_bound(params: EstimatedParams, counts: np.ndarray,
                         elapsed_rounds: int, K: int, z: int) -> float:
    """Evaluate the five-term convergence bound at given participation counts."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != params.phi_n.shape:
        raise ParameterError("counts length must match the number of clients")
    if elapsed_rounds < 1:
        raise ParameterError("elapsed_rounds must be >= 1")
    if params.mu_convex == 0:
        raise EvaluationError("bound is undefined at mu = 0")
    if params.gamma + elapsed_rounds <= 0:
        raise EvaluationError("bound is undefined at gamma + elapsed_rounds <= 0")
    value = _bound_terms(
        params.init_dist_sq, params.gamma, params.sigma_sq, params.L_smooth,
        params.mu_convex,
        sums=_client_sums(counts, params.gamma_hat_n, params.phi_n, int(z)),
        rho_min_hat=params.rho_min_hat, Lambda=params.Lambda,
        elapsed=int(elapsed_rounds), K=int(K), num_clients=params.num_clients)
    if math.isinf(value):
        raise EvaluationError("bound evaluation degenerate for the given parameters")
    return value


def convergence_coefficients(L: float, mu: float, gamma: float, Lambda: float,
                             K: int, horizon: int) -> tuple[float, float]:
    """Omega_A and Omega_B of the plan objective, on the given horizon."""
    if mu <= 0 or L <= 0 or horizon < 1 or K < 1 or Lambda <= 0:
        raise ParameterError("need L, mu, Lambda > 0 and K, horizon >= 1")
    g_t = gamma + horizon
    omega_a = 4.0 * L * Lambda / (g_t * horizon * K * K * mu * mu)
    omega_b = (4.0 * L * L / (g_t * horizon * K * mu * mu)
               + 3.0 * L / (2.0 * horizon * K * mu))
    return omega_a, omega_b


def objective_value(counts, phi_n, gamma_n, omega_a: float, omega_b: float, z: int) -> float:
    """J = Omega_A * sum T^{z+1} Phi + Omega_B * sum T Gamma."""
    counts = np.asarray(counts, dtype=float)
    phi_n = np.asarray(phi_n, dtype=float)
    gamma_n = np.asarray(gamma_n, dtype=float)
    if not (counts.shape == phi_n.shape == gamma_n.shape):
        raise ParameterError("counts, phi_n, gamma_n length mismatch")
    return float(omega_a * np.sum(counts ** (z + 1) * phi_n)
                 + omega_b * np.sum(counts * gamma_n))


def water_fill_continuous(phi_n, gamma_n, omega_a: float, omega_b: float,
                          total: float, z: int) -> tuple[np.ndarray, float]:
    """Continuous minimizer of J under sum T_n = total, T_n >= 0.

    Bisection on the KKT multiplier lam with
    T_n(lam) = max(0, (lam - Omega_B*Gamma_n) / ((z+1)*Omega_A*Phi_n))^(1/z).
    Returns (T vector, lam); stationarity holds exactly by construction.
    Raises ParameterError, naming the coefficients, when their scale puts the
    bisection bracket past float range, or leaves the counts off `total` by
    as much as their number, more than rounding each by < 1 can absorb.
    """
    phi_n = np.asarray(phi_n, dtype=float)
    gamma_n = np.asarray(gamma_n, dtype=float)
    if not (math.isfinite(omega_a) and omega_a > 0):
        raise ParameterError(f"omega_a must be positive and finite, got {omega_a}")
    if not (math.isfinite(omega_b) and omega_b >= 0):
        raise ParameterError(f"omega_b must be nonnegative and finite, got {omega_b}")

    def unsolvable(why: str) -> ParameterError:
        return ParameterError(
            f"cannot water-fill the plan at omega_a={omega_a}, omega_b={omega_b} with "
            f"phi_n in [{phi_n.min()}, {phi_n.max()}]: {why}")

    def alloc(lam: float) -> np.ndarray:
        base = np.maximum(0.0, (lam - thresholds) / denom)
        return base if z == 1 else base ** (1.0 / z)

    # out-of-range scales give inf or NaN, rejected below, not a warning
    with np.errstate(all="ignore"):
        thresholds = omega_b * gamma_n
        denom = (z + 1) * omega_a * phi_n
        lo = float(np.min(thresholds))
        hi = float(np.max(thresholds)) + float(np.max(denom)) * (total ** z) + 1.0
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise unsolvable(f"the bisection bracket [{lo}, {hi}] is not finite")
        while alloc(hi).sum() < total:
            hi = 2.0 * hi + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if alloc(mid).sum() < total:
                lo = mid
            else:
                hi = mid
            if (hi - lo) <= 1e-15 * max(1.0, abs(hi)):
                break
        lam = 0.5 * (lo + hi)
        counts = alloc(lam)
        counts_sum = counts.sum()
    if not abs(counts_sum - total) < len(counts):
        raise unsolvable(f"the continuous counts sum to {counts_sum}, not {total}")
    return counts, lam


def solve_plan(phi_n, gamma_n, omega_a: float, omega_b: float, horizon_rounds: int,
               K: int, z: int) -> SelectionPlan:
    """The integer plan minimizing J on the given horizon: the continuous
    relaxation solved by water-filling, rounded by largest remainder so the
    counts sum to K * horizon exactly."""
    total = K * horizon_rounds
    cont, _ = water_fill_continuous(phi_n, gamma_n, omega_a, omega_b, total, z)
    return SelectionPlan(largest_remainder_round(cont, total), horizon_rounds, K)


def optimal_plan(params: EstimatedParams, horizon_rounds: int, K: int, z: int) -> SelectionPlan:
    """Solve the integer plan problem on the given horizon, with Omega_A and
    Omega_B recomputed for that horizon (see `solve_plan`)."""
    omega_a, omega_b = convergence_coefficients(
        params.L_smooth, params.mu_convex, params.gamma, params.Lambda, K, horizon_rounds)
    return solve_plan(params.phi_n, params.gamma_hat_n, omega_a, omega_b, horizon_rounds,
                      K, z)


def selection_skew(weights, local_losses, local_optima, global_loss: float) -> float:
    """rho = sum_n p_n (F_n - F_n*) / (F - mean(F_n*))."""
    weights = np.asarray(weights, dtype=float)
    local_losses = np.asarray(local_losses, dtype=float)
    local_optima = np.asarray(local_optima, dtype=float)
    if not (weights.shape == local_losses.shape == local_optima.shape):
        raise ParameterError("weights, local_losses, local_optima length mismatch")
    denom = global_loss - float(np.mean(local_optima))
    if denom <= 0:
        raise EvaluationError(f"skew denominator must be positive, got {denom}")
    return float(np.sum(weights * (local_losses - local_optima))) / denom


def winsorize_upper(values: np.ndarray) -> np.ndarray:
    """Cap values above their `WINSORIZE_PERCENTILE`-th percentile (guards
    the plan solver against loss-noise outliers)."""
    values = np.asarray(values, dtype=float)
    cap = float(np.percentile(values, WINSORIZE_PERCENTILE))
    return np.minimum(values, cap)


def observed_stage_loss(log: StageOneLog, T0: int) -> float:
    """Mean reported loss at the incoming model of round T0's participants.

    This is the observation the parameter fit targets; engine and offline
    replay both call it so the two agree bit for bit.
    """
    reporters = log.selected[T0 - 1]
    report = log.loss_current[T0 - 1]
    return float(np.mean([report[n] for n in reporters]))


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _coordinate_minimize(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Deterministic 1-d minimize: coarse 33-point scan picks the bracket,
    golden-section refines inside it. The scan step guards against the
    residual |target - bound| being multimodal along a coordinate."""
    if hi <= lo:
        return lo, f(lo)
    # Python floats: the golden section's arithmetic on numpy scalars costs
    # several times as much, for the same bits
    grid = np.linspace(lo, hi, 33).tolist()
    vals = np.array([f(x) for x in grid])
    i = int(np.argmin(vals))
    x, fx = _golden_section(f, grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)], tol)
    if vals[i] < fx:
        return grid[i], float(vals[i])
    return float(x), float(fx)


def estimate_problem_params(observed_loss: float, log: StageOneLog, Lambda: float,
                            phi_n, gamma_hat_n, rho_min_hat: float, K: int, z: int,
                            ) -> EstimatedParams:
    """Fit the unobservable bound parameters to the observed stage-one loss.

    Minimizes |observed_loss - bound(init_dist_sq, gamma, sigma_sq, L, mu)| by
    cyclic coordinate descent from the fixed neutral start (1, 1, 0, 1, 0.5),
    each coordinate step a golden-section search on its box; L > mu is kept
    with a 1e-6 margin. One equation in five unknowns is underdetermined, so
    determinism of the procedure is the contract, not uniqueness.
    """
    phi_n = np.asarray(phi_n, dtype=float)
    gamma_hat_n = np.asarray(gamma_hat_n, dtype=float)
    elapsed = log.num_rounds - 1
    num_clients = len(phi_n)
    counts = log.counters(elapsed, num_clients).astype(float)
    sums = _client_sums(counts, gamma_hat_n, phi_n, z)

    # the fitted parameters in `_FIT_ORDER`, from the neutral start
    point = [1.0, 1.0, 0.0, 1.0, 0.5]
    fixed = (sums, rho_min_hat, Lambda, elapsed, K, num_clients)
    residual = abs(observed_loss - _bound_terms(*point, *fixed))
    history = [residual]
    if residual > _FIT_RESIDUAL_TOL:
        for _ in range(_FIT_MAX_SWEEPS):
            improved = False
            for j in range(len(point)):
                if j == _L_SMOOTH:
                    lo = point[_MU_CONVEX] * (1.0 + _LM_MARGIN)
                    hi = max(_FIT_BOX_UPPER, lo)
                elif j == _MU_CONVEX:
                    lo, hi = 0.0, point[_L_SMOOTH] / (1.0 + _LM_MARGIN)
                else:
                    lo, hi = 0.0, _FIT_BOX_UPPER
                # the point with coordinate j at x, evaluated in place
                trial = point.copy()

                def f(x, _trial=trial, _j=j):
                    _trial[_j] = x
                    return abs(observed_loss - _bound_terms(*_trial, *fixed))

                x, fx = _coordinate_minimize(f, lo, hi, _FIT_GOLDEN_TOL)
                if fx < residual:
                    point[j] = x
                    residual = fx
                    improved = True
            history.append(residual)
            if residual <= _FIT_RESIDUAL_TOL or not improved:
                break

    init_dist_sq, gamma, sigma_sq, L_smooth, mu_convex = point
    omega_a, omega_b = convergence_coefficients(L_smooth, mu_convex, gamma, Lambda, K,
                                                elapsed)
    return EstimatedParams(
        gamma_hat_n=gamma_hat_n, rho_min_hat=float(rho_min_hat), Lambda=float(Lambda),
        phi_n=phi_n, gamma=gamma, L_smooth=L_smooth, mu_convex=mu_convex,
        sigma_sq=sigma_sq, init_dist_sq=init_dist_sq, omega_a=omega_a, omega_b=omega_b,
        fit_residual=residual, residual_history=tuple(history))
