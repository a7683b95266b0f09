"""Selection-plan optimization and convergence-bound parameter estimation.

The per-client noise energy after T_n participations scales like T_n^z * Phi_n
(z = 1 Gaussian, z = 2 Laplace), with

    Gaussian: Lambda = 4 * Xi^2 * d * c2^2,  Phi_n = ln(1/delta_n) / (D_n^2 eps_n^2)
    Laplace:  Lambda = 8 * d * Xi^2,         Phi_n = 1 / (D_n^2 eps_n^2)

The plan objective is J(T_1..T_N) = Omega_A * sum T_n^{z+1} Phi_n
+ Omega_B * sum T_n Gamma_n subject to sum T_n = K * horizon, T_n integer;
its continuous relaxation is solved in closed form when Gamma = 0 and by
water-filling bisection on the KKT multiplier otherwise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ParameterError, StateError
from .mechanisms import MechanismKind

logger = logging.getLogger(__name__)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# L > mu enforced as L >= mu * (1 + MARGIN) during the fit's coordinate steps.
_LM_MARGIN = 1e-6


@dataclass(frozen=True)
class ClientMeta:
    """Static per-client facts the planner needs."""

    client_id: int
    epsilon: float
    delta: float
    num_samples: int

    def __post_init__(self):
        if self.client_id < 0:
            raise ParameterError(f"client_id must be >= 0, got {self.client_id}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not (math.isfinite(self.delta) and 0 <= self.delta < 1):
            raise ParameterError(f"delta must lie in [0, 1), got {self.delta}")
        if self.num_samples < 1:
            raise ParameterError(f"num_samples must be >= 1, got {self.num_samples}")


@dataclass(frozen=True)
class SelectionPlan:
    """Participation counts T_n and probabilities p_n over a horizon."""

    counts: np.ndarray
    probabilities: np.ndarray
    horizon_rounds: int
    per_round_selected: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probabilities", probs)
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
        if probs.shape != counts.shape:
            raise ParameterError("probabilities and counts length mismatch")
        if not np.allclose(probs, counts / total, rtol=0, atol=1e-9):
            raise ParameterError("probabilities must equal counts / (K*horizon)")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ParameterError("probabilities must sum to 1 within 1e-9")

    @classmethod
    def from_counts(cls, counts, horizon_rounds: int, per_round_selected: int) -> "SelectionPlan":
        counts = np.asarray(counts, dtype=int)
        total = horizon_rounds * per_round_selected
        return cls(counts, counts / total, horizon_rounds, per_round_selected)

    def to_dict(self) -> dict:
        return {
            "counts": [int(c) for c in self.counts],
            "probabilities": [float(p) for p in self.probabilities],
            "horizon_rounds": int(self.horizon_rounds),
            "per_round_selected": int(self.per_round_selected),
        }


@dataclass(frozen=True)
class StageOneLog:
    """What the server observed during the estimation stage.

    selected[t-1] is the set S_t; loss_current[t-1][n] is the distorted
    F_n at the incoming global model, loss_updated[t-1][n] the distorted F_n
    at the client's locally updated model, both for n in S_t.
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
        if not (len(sel) == len(cur) == len(upd)):
            raise ParameterError("per-round record lists must have equal length")
        for t, (s, c, u) in enumerate(zip(sel, cur, upd), start=1):
            if set(c) != set(s) or set(u) != set(s):
                raise ParameterError(f"round {t}: loss records do not match the selected set")
            if any(i < 0 for i in s):
                raise ParameterError(f"round {t}: negative client id")

    @property
    def num_rounds(self) -> int:
        return len(self.selected)

    def counters(self, through_round: int, num_clients: int) -> np.ndarray:
        """C_n = number of appearances in S_1..S_through_round."""
        counts = np.zeros(num_clients, dtype=int)
        for s in self.selected[:through_round]:
            for n in s:
                if n >= num_clients:
                    raise ParameterError(f"client id {n} out of range for {num_clients} clients")
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
        if gh.shape != ph.shape:
            raise ParameterError("gamma_hat_n and phi_n length mismatch")
        if np.any(~np.isfinite(gh)) or np.any(gh < 0):
            raise ParameterError("gamma_hat_n must be finite and nonnegative")
        if np.any(~np.isfinite(ph)) or np.any(ph < 0):
            raise ParameterError("phi_n must be finite and nonnegative")
        for name in ("rho_min_hat", "Lambda", "gamma", "L_smooth", "mu_convex",
                     "sigma_sq", "init_dist_sq"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v!r}")
        if self.Lambda <= 0:
            raise ParameterError("Lambda must be positive")
        for name in ("gamma", "L_smooth", "mu_convex", "sigma_sq", "init_dist_sq"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")

    @property
    def num_clients(self) -> int:
        return len(self.phi_n)

    def to_dict(self) -> dict:
        return {
            "gamma_hat_n": [float(g) for g in self.gamma_hat_n],
            "rho_min_hat": float(self.rho_min_hat),
            "Lambda": float(self.Lambda),
            "phi_n": [float(p) for p in self.phi_n],
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
    """Round a nonnegative vector to integers preserving its (integer) sum.

    Floors every entry, then hands the leftover units to the largest
    fractional parts (ties broken by index). Each entry moves by < 1.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < -1e-9) or np.any(~np.isfinite(values)):
        raise ParameterError("values must be finite and nonnegative")
    values = np.maximum(values, 0.0)
    floors = np.floor(values).astype(int)
    remainder = int(total) - int(floors.sum())
    if remainder < 0:
        # Float noise pushed the sum above total; trim the smallest fractions.
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
                       c2: float, clients: list) -> tuple[float, np.ndarray]:
    """Noise-energy constants: Lambda and the per-client Phi_n vector.

    model_dim counts the d base model coordinates; the two stage-one loss
    slots raise sensitivity, not Phi_n.
    """
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


def approximate_plan(phi_n: np.ndarray, budget_rounds: int, z: int,
                     per_round_selected: int = 1) -> SelectionPlan:
    """Budget-only plan: T_n proportional to Phi_n^(-1/z), summing to budget_rounds.

    Closed form of the noise-term-only allocation
    T_n = budget_rounds / sum_m (Phi_n / Phi_m)^(1/z), rounded by largest
    remainder.
    """
    phi_n = np.asarray(phi_n, dtype=float)
    if phi_n.ndim != 1 or len(phi_n) == 0:
        raise ParameterError("phi_n must be a nonempty vector")
    if np.any(phi_n <= 0) or np.any(~np.isfinite(phi_n)):
        raise ParameterError("all phi_n must be positive and finite")
    if budget_rounds < 1:
        raise ParameterError("budget_rounds must be >= 1")
    if z not in (1, 2):
        raise ParameterError(f"z must be 1 or 2, got {z}")
    if budget_rounds % per_round_selected != 0:
        raise ParameterError("budget_rounds must be divisible by per_round_selected")
    weights = phi_n ** (-1.0 / z)
    cont = budget_rounds * weights / weights.sum()
    counts = largest_remainder_round(cont, budget_rounds)
    return SelectionPlan.from_counts(counts, budget_rounds // per_round_selected,
                                     per_round_selected)


def estimate_gamma_n(log: StageOneLog, num_clients: int) -> np.ndarray:
    """Per-client non-IID degree estimate.

    For clients observed during stage one, the minimum over their rounds of
    |loss_current - loss_updated|; for everyone else, the arithmetic mean of
    the observed clients' values.
    """
    if log.num_rounds == 0:
        raise StateError("stage-one log is empty")
    best: dict[int, float] = {}
    for s, cur, upd in zip(log.selected, log.loss_current, log.loss_updated):
        for n in s:
            if n >= num_clients:
                raise ParameterError(f"client id {n} out of range for {num_clients} clients")
            gap = abs(cur[n] - upd[n])
            if n not in best or gap < best[n]:
                best[n] = gap
    if not best:
        raise StateError("no client was ever selected during stage one")
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
    if T0 < 2:
        raise ParameterError(f"T0 must be >= 2, got {T0}")
    if K < 1:
        raise ParameterError("K must be >= 1")
    if log.num_rounds < T0:
        raise StateError(f"log has {log.num_rounds} rounds, need the full {T0} stage-one rounds")
    reporters = log.selected[T0 - 1]
    if not reporters:
        raise StateError(f"round {T0} has no reported losses")
    report = log.loss_current[T0 - 1]
    f_bar = float(np.mean([report[n] for n in reporters]))
    if f_bar <= 0.0:
        logger.warning("nonpositive mean reported loss %.3g at round %d; "
                       "returning neutral skew 1.0", f_bar, T0)
        return 1.0
    counts: dict[int, int] = {}
    for s in log.selected[:T0 - 1]:
        for n in s:
            counts[n] = counts.get(n, 0) + 1
    numerator = 0.0
    for n, c in sorted(counts.items()):
        numerator += c * (report[n] if n in report else f_bar)
    return numerator / (K * (T0 - 1) * f_bar)


def _bound_terms(init_dist_sq: float, gamma: float, sigma_sq: float, L: float, mu: float,
                 *, counts: np.ndarray, gamma_hat_n: np.ndarray, rho_min_hat: float,
                 Lambda: float, phi_n: np.ndarray, elapsed: int, K: int, z: int,
                 num_clients: int) -> float:
    """Predicted global-loss bound after `elapsed` rounds; inf when undefined."""
    if mu <= 0 or L <= 0:
        return math.inf
    g_tau = gamma + elapsed
    if g_tau <= 0:
        return math.inf
    init_term = L * gamma / (2.0 * g_tau) * init_dist_sq
    skew_term = -3.0 * L * rho_min_hat / (2.0 * mu * num_clients) * float(np.sum(gamma_hat_n))
    sgd_term = 4.0 * L * sigma_sq / (mu * mu * K * g_tau)
    noise_term = (float(np.sum(counts ** (z + 1) * phi_n))
                  * 4.0 * L * Lambda / (K * K * mu * mu * g_tau * elapsed))
    bias_term = (float(np.sum(counts * gamma_hat_n)) / elapsed
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
        params.mu_convex, counts=counts, gamma_hat_n=params.gamma_hat_n,
        rho_min_hat=params.rho_min_hat, Lambda=params.Lambda, phi_n=params.phi_n,
        elapsed=int(elapsed_rounds), K=int(K), z=int(z),
        num_clients=params.num_clients)
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
    """
    phi_n = np.asarray(phi_n, dtype=float)
    gamma_n = np.asarray(gamma_n, dtype=float)
    if np.any(phi_n <= 0):
        raise ParameterError("all phi_n must be positive")
    if omega_a <= 0:
        raise ParameterError("omega_a must be positive")
    if total <= 0:
        raise ParameterError("total must be positive")

    thresholds = omega_b * gamma_n
    denom = (z + 1) * omega_a * phi_n

    def alloc(lam: float) -> np.ndarray:
        base = np.maximum(0.0, (lam - thresholds) / denom)
        return base if z == 1 else base ** (1.0 / z)

    lo = float(np.min(thresholds))
    hi = float(np.max(thresholds)) + float(np.max(denom)) * (total ** z) + 1.0
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
    return alloc(lam), lam


def optimal_plan(params: EstimatedParams, horizon_rounds: int, K: int, z: int) -> SelectionPlan:
    """Solve the integer plan problem on the given horizon.

    Omega_A/Omega_B are recomputed with the horizon substituted for T, the
    continuous relaxation solved by water-filling, and the result rounded by
    largest remainder so the counts sum to K * horizon exactly.
    """
    if horizon_rounds < 1:
        raise ParameterError(f"horizon_rounds must be >= 1, got {horizon_rounds}")
    if K < 1:
        raise ParameterError("K must be >= 1")
    if np.any(params.phi_n <= 0):
        raise ParameterError("optimal_plan needs strictly positive phi_n")
    omega_a, omega_b = convergence_coefficients(
        params.L_smooth, params.mu_convex, params.gamma, params.Lambda, K, horizon_rounds)
    total = K * horizon_rounds
    cont, _ = water_fill_continuous(params.phi_n, params.gamma_hat_n,
                                    omega_a, omega_b, total, z)
    counts = largest_remainder_round(cont, total)
    return SelectionPlan.from_counts(counts, horizon_rounds, K)


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


def winsorize_upper(values: np.ndarray, percentile: float = 95.0) -> np.ndarray:
    """Cap values above the given percentile (guards the plan solver against loss-noise outliers)."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return values.copy()
    cap = float(np.percentile(values, percentile))
    return np.minimum(values, cap)


def observed_stage_loss(log: StageOneLog, T0: int) -> float:
    """Mean reported loss at the incoming model of round T0's participants.

    This is the observation the parameter fit targets; engine and offline
    replay both call it so the two agree bit for bit.
    """
    if log.num_rounds < T0 or T0 < 1:
        raise StateError(f"log has {log.num_rounds} rounds, need round {T0}")
    reporters = log.selected[T0 - 1]
    if not reporters:
        raise StateError(f"round {T0} has no reported losses")
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
    grid = np.linspace(lo, hi, 33)
    vals = np.array([f(x) for x in grid])
    i = int(np.argmin(vals))
    x, fx = _golden_section(f, grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)], tol)
    if vals[i] < fx:
        return float(grid[i]), float(vals[i])
    return float(x), float(fx)


def estimate_problem_params(observed_loss: float, log: StageOneLog, Lambda: float,
                            phi_n, gamma_hat_n, rho_min_hat: float, K: int, z: int,
                            *, box_upper: float = 1e6, golden_tol: float = 1e-8,
                            max_sweeps: int = 60, residual_tol: float = 1e-9,
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
    if phi_n.shape != gamma_hat_n.shape:
        raise ParameterError("phi_n and gamma_hat_n length mismatch")
    T0 = log.num_rounds
    if T0 < 2:
        raise StateError(f"stage-one log has {T0} rounds; estimation needs at least 2")
    elapsed = T0 - 1
    num_clients = len(phi_n)
    counts = log.counters(elapsed, num_clients).astype(float)

    point = {"init_dist_sq": 1.0, "gamma": 1.0, "sigma_sq": 0.0,
             "L_smooth": 1.0, "mu_convex": 0.5}

    def residual_at(p: dict) -> float:
        value = _bound_terms(
            p["init_dist_sq"], p["gamma"], p["sigma_sq"], p["L_smooth"], p["mu_convex"],
            counts=counts, gamma_hat_n=gamma_hat_n, rho_min_hat=rho_min_hat,
            Lambda=Lambda, phi_n=phi_n, elapsed=elapsed, K=K, z=z,
            num_clients=num_clients)
        return abs(observed_loss - value)

    residual = residual_at(point)
    history = [residual]
    order = ("init_dist_sq", "gamma", "sigma_sq", "L_smooth", "mu_convex")
    if residual > residual_tol:
        for _ in range(max_sweeps):
            improved = False
            for name in order:
                if name == "L_smooth":
                    lo = point["mu_convex"] * (1.0 + _LM_MARGIN)
                    hi = max(box_upper, lo)
                elif name == "mu_convex":
                    lo, hi = 0.0, point["L_smooth"] / (1.0 + _LM_MARGIN)
                else:
                    lo, hi = 0.0, box_upper

                def f(x, _name=name):
                    trial = dict(point)
                    trial[_name] = x
                    return residual_at(trial)

                x, fx = _coordinate_minimize(f, lo, hi, golden_tol)
                if fx < residual:
                    point[name] = x
                    residual = fx
                    improved = True
            history.append(residual)
            if residual <= residual_tol or not improved:
                break

    omega_a, omega_b = convergence_coefficients(
        point["L_smooth"], point["mu_convex"], point["gamma"], Lambda, K, elapsed)
    return EstimatedParams(
        gamma_hat_n=gamma_hat_n, rho_min_hat=float(rho_min_hat), Lambda=float(Lambda),
        phi_n=phi_n, gamma=point["gamma"], L_smooth=point["L_smooth"],
        mu_convex=point["mu_convex"], sigma_sq=point["sigma_sq"],
        init_dist_sq=point["init_dist_sq"], omega_a=omega_a, omega_b=omega_b,
        fit_residual=residual, residual_history=tuple(history))
