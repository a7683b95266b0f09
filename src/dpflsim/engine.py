"""Federated training loops with per-round DP noise.

One round: the server samples K clients from the candidate set by plan
probability, each selected client takes one clipped-SGD step on its data,
noises the step (and during stage one, two distorted loss values), and the
server applies the mean update divided by the nominal K. `client_round`
computes a round's client work as one batch over the responders' stacked
rows, and per-client state lives in the arrays of `ClientArrays`.

The two-stage algorithm runs an approximate plan for the first T0 rounds while
collecting noisy losses, then estimates the convergence-bound parameters once
and switches to the plan that minimizes the bound on the remaining horizon
with the remaining budgets. Baselines run a single uniform stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ParameterError, StateError
from .mechanisms import (
    ClipConfig,
    MechanismKind,
    NoiseSpec,
    PrivacyBudget,
    clip_gradient_matrix,
    clip_outer_rows,
    consume_budget,
    gaussian_sigma,
    gradient_sensitivity,
    laplace_scale,
    sample_noise,
)
from .models import LinearRegression, LogisticRegression, ModelState, with_intercept
from .selection import (
    ClientMeta,
    EstimatedParams,
    SelectionPlan,
    StageOneLog,
    approximate_plan,
    compute_phi_lambda,
    estimate_gamma_n,
    estimate_problem_params,
    estimate_rho_min,
    largest_remainder_round,
    observed_stage_loss,
    optimal_plan,
    winsorize_upper,
)

logger = logging.getLogger(__name__)

BASELINE_KINDS = ("fedsgd", "uniform_dp", "weiavg")
ALGORITHMS = ("dpfl_bcs",) + BASELINE_KINDS

# Absolute tolerance of the ledger checks run at the end of every run.
LEDGER_TOL = 1e-9


def _stream(seed: int, *key) -> np.random.Generator:
    """Independent generator derived from (master seed, domain key...)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(k) for k in key]))


@dataclass(frozen=True)
class LearningRateSchedule:
    """eta_t for t >= 1: constant eta0, eta0/(1 + t/h), or 2/(mu (t + gamma))."""

    kind: str
    eta0: float = 0.05
    decay_horizon: float = 200.0
    mu: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "experiment_decay", "theory_decay"):
            raise ParameterError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("constant", "experiment_decay") and not self.eta0 > 0:
            raise ParameterError("eta0 must be positive")
        if self.kind == "experiment_decay" and not self.decay_horizon > 0:
            raise ParameterError("decay_horizon must be positive")
        if self.kind == "theory_decay":
            if not self.mu > 0:
                raise ParameterError("theory_decay needs mu > 0")
            if self.gamma < 0:
                raise ParameterError("theory_decay needs gamma >= 0")

    def rate(self, t: int) -> float:
        if t < 1:
            raise ParameterError(f"round index must be >= 1, got {t}")
        if self.kind == "constant":
            return self.eta0
        if self.kind == "experiment_decay":
            return self.eta0 / (1.0 + t / self.decay_horizon)
        return 2.0 / (self.mu * (t + self.gamma))


@dataclass(frozen=True)
class RunSettings:
    """Everything a training loop needs besides the data and budgets."""

    mechanism: MechanismKind
    clients_per_round: int
    total_rounds: int
    estimation_rounds: int
    clip_bound: float
    loss_cap: float
    schedule: LearningRateSchedule
    c2: float = 1.0
    momentum: float = 0.0
    weight_decay: float = 0.0
    aggregate_by_count: bool = False
    # dp_enabled=False zeroes all noise AND disables budget accounting and
    # participation caps, so the biased algorithm under a uniform plan reduces
    # bit-exactly to FedSGD (diagnostic mode, not a privacy mode).
    dp_enabled: bool = True
    force_uniform_plan: bool = False
    record_weights: bool = False
    winsorize_percentile: float = 95.0

    def __post_init__(self):
        if not isinstance(self.mechanism, MechanismKind):
            raise ParameterError("mechanism must be a MechanismKind")
        if self.clients_per_round < 1:
            raise ParameterError("clients_per_round must be >= 1")
        if self.total_rounds < 1:
            raise ParameterError("total_rounds must be >= 1")
        if not 1 <= self.estimation_rounds < self.total_rounds:
            raise ParameterError(
                f"need 1 <= estimation_rounds < total_rounds, got "
                f"{self.estimation_rounds} vs {self.total_rounds}")
        if self.clip_bound <= 0:
            raise ParameterError("clip_bound must be positive")
        if self.loss_cap < 0:
            raise ParameterError("loss_cap must be nonnegative")
        if self.c2 <= 0:
            raise ParameterError("c2 must be positive")
        if not 0 <= self.momentum < 1:
            raise ParameterError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be nonnegative")
        if not 0 < self.winsorize_percentile <= 100:
            raise ParameterError("winsorize_percentile must lie in (0, 100]")

    @property
    def clip(self) -> ClipConfig:
        return ClipConfig.for_mechanism(self.mechanism, self.clip_bound)


@dataclass
class FederatedProblem:
    """A model kind, partitioned client data, budgets, and the server test set."""

    model: LinearRegression | LogisticRegression
    client_data: list
    budgets: list
    test_data: Dataset

    def __post_init__(self):
        if len(self.client_data) == 0:
            raise ParameterError("need at least one client")
        if len(self.client_data) != len(self.budgets):
            raise ParameterError("client_data and budgets length mismatch")
        for i, d in enumerate(self.client_data):
            if d.feature_dim != self.model.feature_dim:
                raise ParameterError(
                    f"client {i} feature_dim {d.feature_dim} != model {self.model.feature_dim}")
        if self.test_data.feature_dim != self.model.feature_dim:
            raise ParameterError(f"test feature_dim {self.test_data.feature_dim} "
                                 f"!= model {self.model.feature_dim}")
        if self.model.is_classification:
            # one pass over every label, clients and test set together
            labels = np.concatenate([d.targets for d in self.client_data]
                                    + [self.test_data.targets])
            if labels.dtype.kind not in "iu":
                raise ParameterError(
                    f"classification targets must be integers, got {labels.dtype}")
            low, high = labels.min(), labels.max()
            if low < 0 or high >= self.model.num_classes:
                raise ParameterError(
                    f"labels must lie in [0, {self.model.num_classes}), "
                    f"got [{low}, {high}]")

    @property
    def num_clients(self) -> int:
        return len(self.client_data)

    @property
    def metas(self) -> list:
        return [
            ClientMeta(i, b.epsilon, b.delta, d.num_samples)
            for i, (b, d) in enumerate(zip(self.budgets, self.client_data))
        ]


@dataclass(frozen=True)
class RoundRecord:
    t: int
    stage: int
    selected: tuple
    losses: dict | None
    test_loss: float
    test_accuracy: float | None


@dataclass
class ClientLedger:
    """Post-run accounting for one client."""

    client_id: int
    epsilon_total: float
    delta_total: float
    epsilon_remaining: float
    delta_remaining: float
    epsilon_consumed: float
    slice_sum: float
    participations: int
    stage1_participations: int
    stage2_participations: int
    stage1_planned: int
    stage2_planned: int | None
    stage2_per_round_epsilon: float | None
    epsilon_remaining_at_replan: float | None
    exhausted: bool
    trained_after_exhaustion: bool


@dataclass
class RunResult:
    algorithm: str
    seed: int
    rounds: list
    final_state: ModelState
    final_test_loss: float
    final_test_accuracy: float | None
    plan_stage1: SelectionPlan
    plan_stage2: SelectionPlan | None
    estimated_params: EstimatedParams | None
    ledger: list
    ended_early: bool
    settings: RunSettings
    metas: list
    weight_trajectory: np.ndarray | None = None


def local_loss(model: ModelState, data: Dataset, loss_cap: float) -> float:
    """Mean per-sample loss with each per-sample loss capped to [0, loss_cap]."""
    if data.feature_dim != model.model_kind.feature_dim:
        raise ParameterError(
            f"data feature_dim {data.feature_dim} != model {model.model_kind.feature_dim}")
    losses = model.model_kind.per_sample_losses(model.weights, data.features, data.targets)
    return float(np.mean(np.clip(losses, 0.0, loss_cap)))


def local_gradient(model: ModelState, data: Dataset, learning_rate: float,
                   clip: ClipConfig) -> np.ndarray:
    """eta_t times the mean of per-sample-clipped gradients; norm <= eta_t * bound."""
    if data.num_samples == 0:
        raise ParameterError("empty dataset")
    if data.feature_dim != model.model_kind.feature_dim:
        raise ParameterError(
            f"data feature_dim {data.feature_dim} != model {model.model_kind.feature_dim}")
    grads = model.model_kind.per_sample_gradients(model.weights, data.features, data.targets)
    clipped = clip_gradient_matrix(grads, clip)
    return learning_rate * clipped.mean(axis=0)


class ClientArrays:
    """Per-client training and privacy state of one run, one entry per client.

    `planned`, `stage_count`, the stage budgets and the slices describe the
    current stage; `install` starts a stage from a plan. `slice_sum` adds up
    the slices charged, clamped at the remaining budget, independently of
    `consume_budget`, so the engine can check the ledger against it.
    `exhausted` starts from the incoming budgets, and an exhausted client is
    never eligible again.
    """

    def __init__(self, data: list, budgets: list):
        n = len(data)
        self.data = list(data)
        self.num_samples = np.array([d.num_samples for d in data], dtype=int)
        self.epsilon = np.array([b.epsilon for b in budgets], dtype=float)
        self.delta = np.array([b.delta for b in budgets], dtype=float)
        self.epsilon_remaining = np.array([b.epsilon_remaining for b in budgets], dtype=float)
        self.delta_remaining = np.array([b.delta_remaining for b in budgets], dtype=float)
        self.planned = np.zeros(n, dtype=int)
        self.stage_count = np.zeros(n, dtype=int)
        self.stage_epsilon = np.zeros(n)
        self.stage_delta = np.zeros(n)
        self.slice_epsilon = np.zeros(n)
        self.slice_delta = np.zeros(n)
        self.slice_sum = np.zeros(n)
        self.exhausted = np.array([b.exhausted for b in budgets], dtype=bool)
        self.trained_after_exhaustion = np.zeros(n, dtype=bool)
        # momentum velocities, (n, d); allocated by the first momentum round
        self.velocity = None

    def budget(self, ids: np.ndarray) -> PrivacyBudget:
        return PrivacyBudget(self.epsilon[ids], self.delta[ids],
                             self.epsilon_remaining[ids], self.delta_remaining[ids])

    def install(self, counts, dp: bool) -> None:
        """Start a stage: planned counts, and with DP the stage budgets and slices."""
        self.planned = np.array(counts, dtype=int)
        self.stage_count[:] = 0
        if dp:
            fresh = (self.planned > 0) & ~self.exhausted
            self.stage_epsilon[fresh] = self.epsilon_remaining[fresh]
            self.stage_delta[fresh] = self.delta_remaining[fresh]
            self.slice_epsilon[fresh] = self.stage_epsilon[fresh] / self.planned[fresh]
            self.slice_delta[fresh] = self.stage_delta[fresh] / self.planned[fresh]

    def eligible(self, dp: bool) -> np.ndarray:
        if not dp:
            return np.arange(len(self.data))
        return np.flatnonzero(~self.exhausted & (self.stage_count < self.planned))


@dataclass(frozen=True)
class RoundRelease:
    """What the responders of one round release, row i for client ids[i].

    losses[i] holds the distorted losses at the incoming and at the locally
    updated model, in loss-reporting rounds only.
    """

    ids: np.ndarray
    gradients: np.ndarray
    losses: np.ndarray | None


def client_round(clients: ClientArrays, ids, model: ModelState, learning_rate: float,
                 rng: np.random.Generator, settings: RunSettings, report_losses: bool,
                 noise_enabled: bool = True) -> RoundRelease:
    """The selected clients' contributions to one round, computed as one batch.

    With noise enabled, clients whose budget is exhausted refuse and are left
    out. A responder's base gradient is the mean of its per-sample clipped
    gradients plus weight_decay * w, and its release is eta_t * base plus
    noise. All responders' noise comes from one `sample_noise` call on `rng`,
    row by row in the order of `ids`. During a loss-reporting round the noise
    vector has d+2 coordinates drawn at the joint (gradient + two losses)
    sensitivity; the last two distort eta_t * F at the incoming and the
    locally updated model, then divide by eta_t. Otherwise d coordinates at
    the gradient-only sensitivity.

    With momentum m the velocity is kept in gradient units over noised
    gradients, v <- m * v + base + Z / eta_t, and the release is eta_t * v, so
    momentum only post-processes earlier releases. Budgets, stage counts and
    velocities in `clients` are updated in place.
    """
    ids = np.asarray(ids, dtype=int)
    if noise_enabled:
        refused = clients.exhausted[ids]
        if refused.any():
            for n in ids[refused]:
                logger.warning("client %d refused (budget exhausted)", n)
            ids = ids[~refused]
    kind = model.model_kind
    dim = kind.dim
    if len(ids) == 0:
        return RoundRelease(ids, np.zeros((0, dim)), np.zeros((0, 2)) if report_losses else None)
    data = [clients.data[n] for n in ids]
    counts = clients.num_samples[ids]
    if (counts == 0).any():
        raise ParameterError("empty dataset")
    features = np.concatenate([d.features for d in data])
    targets = np.concatenate([d.targets for d in data])
    if features.shape[1] != kind.feature_dim:
        raise ParameterError(
            f"data feature_dim {features.shape[1]} != model {kind.feature_dim}")
    # per-sample gradients are rank one, so they are clipped from their factors
    clipped = clip_outer_rows(kind.output_gradients(model.weights, features, targets),
                              with_intercept(features), settings.clip)
    starts = np.cumsum(counts) - counts
    means = np.add.reduceat(clipped, starts, axis=0) / counts[:, None]
    # each responder's velocity before this round's noise, in gradient units
    unnoised = means
    if settings.weight_decay > 0:
        unnoised = unnoised + settings.weight_decay * model.weights
    if settings.momentum > 0:
        if learning_rate <= 0:
            raise ParameterError("momentum needs a positive learning rate")
        if clients.velocity is None:
            clients.velocity = np.zeros((len(clients.data), dim))
        unnoised = settings.momentum * clients.velocity[ids] + unnoised
    # the locally updated model of the loss report takes the unnoised step
    steps = learning_rate * unnoised

    mech = settings.mechanism
    sens = gradient_sensitivity(mech, learning_rate, settings.clip_bound, counts,
                                settings.loss_cap, report_losses)
    planned = np.maximum(1, clients.planned[ids])
    slice_eps = clients.slice_epsilon[ids]
    slice_delta = clients.slice_delta[ids]
    width = dim + 2 if report_losses else dim
    if noise_enabled:
        if mech is MechanismKind.GAUSSIAN:
            scale = gaussian_sigma(sens, clients.stage_epsilon[ids],
                                   clients.stage_delta[ids], planned, settings.c2)
        else:
            scale = laplace_scale(sens, clients.stage_epsilon[ids], planned)
        noise = sample_noise(NoiseSpec(mech, sens, scale, slice_eps, slice_delta, planned),
                             width, rng)
    else:
        noise = np.zeros((len(ids), width))
    if settings.momentum > 0:
        velocity = unnoised + noise[:, :dim] / learning_rate
        clients.velocity[ids] = velocity
        gradients = learning_rate * velocity
    else:
        gradients = steps + noise[:, :dim]

    losses = None
    if report_losses:
        eta = learning_rate
        if eta <= 0:
            raise ParameterError("loss distortion needs a positive learning rate")
        losses = np.empty((len(ids), 2))
        for i, d in enumerate(data):
            f_current = local_loss(model, d, settings.loss_cap)
            f_updated = local_loss(model.replaced(model.weights - steps[i]), d,
                                   settings.loss_cap)
            losses[i, 0] = (eta * f_current + noise[i, dim]) / eta
            losses[i, 1] = (eta * f_updated + noise[i, dim + 1]) / eta

    if noise_enabled:
        before = clients.epsilon_remaining[ids]
        budget, exhausted = consume_budget(clients.budget(ids), slice_eps, slice_delta)
        clients.epsilon_remaining[ids] = budget.epsilon_remaining
        clients.delta_remaining[ids] = budget.delta_remaining
        clients.slice_sum[ids] += before - np.maximum(0.0, before - slice_eps)
        clients.trained_after_exhaustion[ids] |= clients.exhausted[ids]
        clients.exhausted[ids] |= exhausted
    clients.stage_count[ids] += 1
    return RoundRelease(ids, gradients, losses)


def aggregate(gradients, k: int, divide_by_count: bool = False) -> np.ndarray:
    """Sum of noisy gradients over the nominal K (or the responder count).

    `gradients` is a list of vectors or a stacked (responders, d) array.
    """
    if len(gradients) == 0:
        raise ParameterError("cannot aggregate an empty gradient list")
    if k < 1:
        raise ParameterError("k must be >= 1")
    divisor = len(gradients) if divide_by_count else k
    return np.sum(gradients, axis=0) / divisor


def sample_selection(probabilities: np.ndarray, candidates, k: int,
                     rng: np.random.Generator) -> list:
    """Weighted sampling without replacement from the candidate set.

    Efraimidis-Spirakis: one uniform u_n per client id, key log(u_n) / w_n for
    each positive-weight candidate, and the k largest keys win. This has the
    distribution of k successive weighted draws that renormalize over the
    candidates left (Efraimidis & Spirakis, IPL 97(5), 2006). A client's key
    does not depend on the other candidates, so two runs sharing `rng` state
    pick the same clients wherever their candidate sets agree. If the
    candidate set has at most k members, or at most k positive weights, those
    are returned without drawing; an empty set yields an empty round.
    Returned ids are sorted.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    probabilities = np.asarray(probabilities, dtype=float)
    ids = np.sort(np.asarray(candidates, dtype=int))
    if len(ids) <= k:
        return ids.tolist()
    weights = probabilities[ids]
    if (weights < 0).any():
        raise ParameterError("selection probabilities must be nonnegative")
    positive = weights > 0
    ids = ids[positive]
    if len(ids) <= k:
        return ids.tolist()
    u = rng.random(len(probabilities))
    keys = np.log(u[ids]) / weights[positive]
    top = np.argpartition(keys, len(ids) - k)[len(ids) - k:]
    return np.sort(ids[top]).tolist()


def _uniform_plan(num_clients: int, horizon: int, k: int) -> SelectionPlan:
    total = horizon * k
    counts = largest_remainder_round(np.full(num_clients, total / num_clients), total)
    return SelectionPlan.from_counts(counts, horizon, k)


def run_dpfl_bcs(problem: FederatedProblem, settings: RunSettings, seed: int,
                 on_round=None) -> RunResult:
    """Two-stage biased-selection run."""
    if settings.estimation_rounds < 2:
        raise ParameterError(
            "the estimators need estimation_rounds >= 2 "
            "(the skew estimate divides by estimation_rounds - 1)")
    return _run_loop(problem, settings, seed, "dpfl_bcs", on_round)


def run_baseline(kind: str, problem: FederatedProblem, settings: RunSettings, seed: int,
                 on_round=None) -> RunResult:
    """Single-stage reference run: fedsgd, uniform_dp, or weiavg."""
    if kind not in BASELINE_KINDS:
        raise ParameterError(f"unknown baseline {kind!r}; expected one of {BASELINE_KINDS}")
    return _run_loop(problem, settings, seed, kind, on_round)


def _run_loop(problem: FederatedProblem, settings: RunSettings, seed: int,
              algorithm: str, on_round=None) -> RunResult:
    if int(seed) < 0:
        raise ParameterError("seed must be nonnegative")
    model = problem.model
    num_clients = problem.num_clients
    k = settings.clients_per_round
    total_rounds = settings.total_rounds
    t0 = settings.estimation_rounds
    if k > num_clients:
        raise ParameterError(f"clients_per_round {k} exceeds num_clients {num_clients}")
    mech = settings.mechanism
    z = mech.noise_exponent
    two_stage = algorithm == "dpfl_bcs"
    dp = settings.dp_enabled and algorithm != "fedsgd"
    weighted_agg = algorithm == "weiavg"
    metas = problem.metas

    clients = ClientArrays(problem.client_data, problem.budgets)
    epsilon_at_start = clients.epsilon_remaining.copy()

    if two_stage and not settings.force_uniform_plan:
        _, phi_initial = compute_phi_lambda(mech, model.dim, settings.clip_bound,
                                            settings.c2, metas)
        plan1 = approximate_plan(phi_initial, k * total_rounds, z, per_round_selected=k)
    else:
        plan1 = _uniform_plan(num_clients, total_rounds, k)
    uniform_probs = np.full(num_clients, 1.0 / num_clients)
    if two_stage and not settings.force_uniform_plan:
        select_probs = plan1.probabilities
    else:
        select_probs = uniform_probs
    clients.install(plan1.counts, dp)
    # (realised, planned) participations per stage, filled as stages end
    stages = []
    stage2_slices = epsilon_at_replan = None

    state = ModelState(model.init_weights(), model)
    trajectory = [state.weights.copy()] if settings.record_weights else None
    records: list = []
    stage1_selected: list = []
    stage1_current: list = []
    stage1_updated: list = []
    plan2 = None
    est_params = None
    ended_early = False

    for t in range(1, total_rounds + 1):
        stage = 1 if (not two_stage or t <= t0) else 2
        eligible = clients.eligible(dp)
        if len(eligible) == 0:
            logger.info("round %d: candidate set empty, ending run early", t)
            ended_early = True
            break
        selected = sample_selection(select_probs, eligible, k, _stream(seed, 1, t))
        if not selected:
            logger.info("round %d: no selectable client, ending run early", t)
            ended_early = True
            break
        eta = settings.schedule.rate(t)
        report_losses = two_stage and t <= t0

        release = client_round(clients, selected, state, eta, _stream(seed, 2, t),
                               settings, report_losses, noise_enabled=dp)
        responders = tuple(release.ids.tolist())
        if responders:
            if weighted_agg:
                eps = clients.epsilon[release.ids]
                update = np.sum((eps / eps.sum())[:, None] * release.gradients, axis=0)
            else:
                update = aggregate(release.gradients, k, settings.aggregate_by_count)
            state = state.replaced(state.weights - update)
        else:
            logger.warning("round %d: no responders, aggregation skipped", t)
        if trajectory is not None:
            trajectory.append(state.weights.copy())

        test_loss, test_accuracy = model.metrics(
            state.weights, problem.test_data.features, problem.test_data.targets)
        losses = None
        if report_losses:
            current, updated = release.losses.T.tolist()
            stage1_selected.append(responders)
            stage1_current.append(dict(zip(responders, current)))
            stage1_updated.append(dict(zip(responders, updated)))
            losses = dict(zip(responders, zip(current, updated)))
        record = RoundRecord(
            t=t, stage=stage, selected=responders, losses=losses,
            test_loss=test_loss, test_accuracy=test_accuracy)
        records.append(record)
        logger.info("round %d stage %d |S|=%d test_loss=%.6f", t, stage,
                    len(responders), test_loss)
        if on_round is not None:
            on_round(record)

        if two_stage and t == t0:
            stages.append((clients.stage_count.copy(), clients.planned))
            plan2, est_params, select_probs = _replan(
                problem, settings, clients, metas,
                StageOneLog(tuple(stage1_selected), tuple(stage1_current),
                            tuple(stage1_updated)),
                dp, uniform_probs)
            if plan2 is None:
                logger.info("no client can fund stage two, ending run early")
                ended_early = True
                break
            clients.install(plan2.counts, dp)
            stage2_slices = clients.slice_epsilon.copy()
            epsilon_at_replan = clients.epsilon_remaining.copy()
    if plan2 is not None or not stages:
        # close the stage in progress; a replan that found no plan closed it
        stages.append((clients.stage_count.copy(), clients.planned))
    _check_ledger(clients, epsilon_at_start, stages if dp else [])

    if records:
        final_loss = records[-1].test_loss
        final_accuracy = records[-1].test_accuracy
    else:
        final_loss, final_accuracy = model.metrics(
            state.weights, problem.test_data.features, problem.test_data.targets)

    stage1_realised, stage2_realised = ([r.tolist() for r, _ in stages]
                                        + [[0] * num_clients])[:2]
    if plan2 is not None:
        stage2_planned = plan2.counts.tolist()
        stage2_per_round = [e if p else None
                            for e, p in zip(stage2_slices.tolist(), stage2_planned)]
        at_replan = epsilon_at_replan.tolist()
    else:
        stage2_planned = stage2_per_round = at_replan = [None] * num_clients
    ledger = [
        ClientLedger(
            client_id=i, epsilon_total=eps, delta_total=delta,
            epsilon_remaining=eps_rem, delta_remaining=delta_rem,
            epsilon_consumed=consumed, slice_sum=slice_sum,
            participations=real1 + real2, stage1_participations=real1,
            stage2_participations=real2, stage1_planned=plan1_count,
            stage2_planned=plan2_count, stage2_per_round_epsilon=per_round,
            epsilon_remaining_at_replan=replan_eps, exhausted=exhausted,
            trained_after_exhaustion=after)
        for i, (eps, delta, eps_rem, delta_rem, consumed, slice_sum, real1, real2,
                plan1_count, plan2_count, per_round, replan_eps, exhausted, after)
        in enumerate(zip(
            clients.epsilon.tolist(), clients.delta.tolist(),
            clients.epsilon_remaining.tolist(), clients.delta_remaining.tolist(),
            (clients.epsilon - clients.epsilon_remaining).tolist(),
            clients.slice_sum.tolist(), stage1_realised, stage2_realised,
            plan1.counts.tolist(), stage2_planned, stage2_per_round, at_replan,
            clients.exhausted.tolist(), clients.trained_after_exhaustion.tolist()))
    ]

    return RunResult(
        algorithm=algorithm, seed=int(seed), rounds=records, final_state=state,
        final_test_loss=final_loss, final_test_accuracy=final_accuracy,
        plan_stage1=plan1, plan_stage2=plan2, estimated_params=est_params,
        ledger=ledger, ended_early=ended_early, settings=settings, metas=metas,
        weight_trajectory=np.array(trajectory) if trajectory is not None else None)


def _check_ledger(clients: ClientArrays, epsilon_at_start: np.ndarray,
                  stages: list) -> None:
    """Raise StateError unless the run's privacy ledger is consistent.

    Consumption stays within the budget and equals the sum of the slices
    charged; realised participation stays within each stage's plan (pass no
    stages when the plan does not cap participation); no client trained
    after its budget ran out.
    """
    consumed = epsilon_at_start - clients.epsilon_remaining
    bad = np.flatnonzero(clients.epsilon - clients.epsilon_remaining
                         > clients.epsilon + LEDGER_TOL)
    if len(bad):
        raise StateError(f"clients {bad.tolist()} consumed more than their budget")
    bad = np.flatnonzero(np.abs(consumed - clients.slice_sum) > LEDGER_TOL)
    if len(bad):
        raise StateError(f"clients {bad.tolist()}: consumed epsilon differs from "
                         f"the slices charged")
    for stage, (realised, planned) in enumerate(stages, start=1):
        bad = np.flatnonzero(realised > planned)
        if len(bad):
            raise StateError(f"clients {bad.tolist()} exceeded their stage-{stage} plan")
    bad = np.flatnonzero(clients.trained_after_exhaustion)
    if len(bad):
        raise StateError(f"clients {bad.tolist()} trained after exhausting their budget")


def _replan(problem: FederatedProblem, settings: RunSettings, clients: ClientArrays,
            metas: list, log: StageOneLog, dp: bool, uniform_probs: np.ndarray):
    """Estimate bound parameters and solve the stage-two plan at t = T0."""
    model = problem.model
    mech = settings.mechanism
    z = mech.noise_exponent
    k = settings.clients_per_round
    num_clients = problem.num_clients
    t0 = settings.estimation_rounds
    horizon = settings.total_rounds - t0

    lam, phi_initial = compute_phi_lambda(mech, model.dim, settings.clip_bound,
                                          settings.c2, metas)
    gamma_hat = estimate_gamma_n(log, num_clients)
    rho_hat = estimate_rho_min(log, k, t0)
    observed = observed_stage_loss(log, t0)
    est = estimate_problem_params(observed, log, lam, phi_initial, gamma_hat,
                                  rho_hat, k, z)

    if settings.force_uniform_plan:
        plan2 = _uniform_plan(num_clients, horizon, k)
        return plan2, est, uniform_probs

    if dp:
        funded = mech is MechanismKind.LAPLACE or clients.delta_remaining > 0
        active = np.flatnonzero(~clients.exhausted & funded)
    else:
        active = np.arange(num_clients)
    if len(active) == 0:
        return None, est, uniform_probs

    if dp:
        remaining_metas = [
            ClientMeta(i, e, d, n) for i, e, d, n in zip(
                active.tolist(), clients.epsilon_remaining[active].tolist(),
                clients.delta_remaining[active].tolist(),
                clients.num_samples[active].tolist())
        ]
        _, phi_active = compute_phi_lambda(mech, model.dim, settings.clip_bound,
                                           settings.c2, remaining_metas)
    else:
        phi_active = phi_initial[active]
    gamma_for_plan = winsorize_upper(gamma_hat, settings.winsorize_percentile)
    params_active = replace(est, phi_n=phi_active, gamma_hat_n=gamma_for_plan[active])
    sub = optimal_plan(params_active, horizon, k, z)
    counts = np.zeros(num_clients, dtype=int)
    counts[active] = sub.counts
    plan2 = SelectionPlan.from_counts(counts, horizon, k)
    return plan2, est, plan2.probabilities
