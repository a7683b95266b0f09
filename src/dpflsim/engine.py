"""Federated training loops with per-round DP noise.

One round: the server samples K clients from the candidate set by plan
probability, each selected client takes one clipped-SGD step on its data,
noises the step (and during stage one, two distorted loss values), and the
server applies the mean update divided by the nominal K. The candidate mask
alone decides who trains: every selected client responds, and the privacy
ledger checked at the end of every run (`_check_ledger`) is what detects a
client trained past its plan or its budget. `client_round` computes a
round's client work as one batch over the selected clients' rows, gathered
at once from the clients' block, and per-client state lives in the arrays of
`ClientArrays`.

`run_lockstep_seeds` runs several algorithms on each of several seeds'
problems together, one round at a time: one `client_round` call per round
does the client work of every run's responders, over one `ClientArrays` that
stacks the runs, and one call each to `sample_selection`, `aggregate` and the
model's `metrics` selects, aggregates and evaluates for every run. Each of
these takes the batch's (runs, ...) arrays only; a single run is a batch of
one seed and one algorithm, so the engine has one loop.

The two-stage algorithm runs an approximate plan for the first T0 rounds while
collecting noisy losses, then estimates the convergence-bound parameters once
and switches to the plan that minimizes the bound on the remaining horizon
with the remaining budgets. Baselines run a single uniform stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import ParameterError, StateError
from .mechanisms import (
    ClipConfig,
    MechanismKind,
    NoiseSpec,
    PrivacyBudget,
    _check,
    _gaussian_sigma,
    _gradient_sensitivity,
    _laplace_scale,
    _unchecked,
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
    EstimatedParams,
    SelectionPlan,
    StageOneLog,
    approximate_plan,
    compute_phi_lambda,
    estimate_gamma_n,
    estimate_problem_params,
    estimate_rho_min,
    observed_stage_loss,
    optimal_plan,
    winsorize_upper,
)

logger = logging.getLogger(__name__)

BASELINE_KINDS = ("fedsgd", "uniform_dp", "weiavg")
ALGORITHMS = ("dpfl_bcs",) + BASELINE_KINDS

# Absolute tolerance of the ledger checks run at the end of every run.
LEDGER_TOL = 1e-9


# Rounds per block of a `RoundStreams` table: its memory is bounded by the
# batch's seeds, not by total_rounds.
STREAM_BLOCK = 256

# numpy's SeedSequence hash and mix constants (numpy/random/bit_generator.pyx)
# and PCG64's multiplier; NEP 19 keeps both streams stable across versions
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _uint32_words(n: int) -> list:
    """A nonnegative integer's 32-bit words, low first, as SeedSequence reads
    an entropy integer (0 is one word)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashes(constant: int, multiplier: int):
    """SeedSequence's running hash constant: yields the (xor, multiply) pair
    of each hash, the multiply constant being the next xor constant."""
    while True:
        following = constant * multiplier & _MASK32
        yield np.uint32(constant), np.uint32(following)
        constant = following


def _hash(words: np.ndarray, hashes) -> np.ndarray:
    xor, multiply = next(hashes)
    words = (words ^ xor) * multiply
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = x * _MIX_L - y * _MIX_R
    return words ^ (words >> 16)


def _generated_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` of every row of an
    (M, L) uint32 block of entropy words, in uint32 arithmetic (which wraps)
    over the rows at once: the pool of four words takes the entropy in
    order, then every word mixes into every other, then any entropy past the
    pool mixes into each word."""
    hashes = _hashes(_INIT_A, _MULT_A)
    length = entropy.shape[1]
    pool = [_hash(entropy[:, i] if i < length else np.zeros(len(entropy), np.uint32), hashes)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], hashes))
    for src in range(4, length):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(entropy[:, src], hashes))
    hashes = _hashes(_INIT_B, _MULT_B)
    words = np.stack([_hash(pool[i % 4], hashes) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _round_states(seeds: list, start: int, stop: int) -> np.ndarray:
    """The (seeds, 2, stop - start, 4) uint64 table of
    `SeedSequence([seed, domain, t]).generate_state(4, np.uint64)` for every
    seed, domain 1 and 2, and round t in [start, stop). A row's entropy is
    the words of seed, domain and t in turn, so the rows are hashed in groups
    of one word count: a seed or round of 2**32 or more has two words."""
    table = np.empty((len(seeds), 2, stop - start, 4), np.uint64)
    words = [_uint32_words(seed) for seed in seeds]
    domains = np.array([1, 2], np.uint32)[:, None, None]
    for count in sorted(set(map(len, words))):
        group = [p for p, w in enumerate(words) if len(w) == count]
        group_words = np.array([words[p] for p in group], np.uint32)[:, None, None, :]
        for lo, hi in ((start, min(stop, 1 << 32)), (max(start, 1 << 32), stop)):
            if lo >= hi:
                continue
            t = np.arange(lo, hi, dtype=np.uint64)[:, None]
            shifts = np.array([0] if hi <= 1 << 32 else [0, 32], np.uint64)
            rounds = (t >> shifts & np.uint64(_MASK32)).astype(np.uint32)
            shape = (len(group), 2, hi - lo)
            entropy = np.concatenate([np.broadcast_to(group_words, shape + (count,)),
                                      np.broadcast_to(domains, shape + (1,)),
                                      np.broadcast_to(rounds, shape + rounds.shape[1:])],
                                     axis=-1)
            table[group, :, lo - start:hi - start] = _generated_states(
                entropy.reshape(-1, entropy.shape[-1])).reshape(shape + (4,))
    return table


class RoundStreams:
    """The per-round generators of a batch's seeds: one reused
    `Generator(PCG64())` per seed and domain (1 selection, 2 noise).
    `install(domain, p, t)` gives seed p's generator of `domain` the state of
    `Generator(PCG64(SeedSequence([seed, domain, t])))` and returns it. The
    states come from a `_round_states` table of `STREAM_BLOCK` rounds, built
    when a round falls outside the current one."""

    def __init__(self, seeds: list, total_rounds: int):
        self.seeds, self.total_rounds = seeds, total_rounds
        self.generators = [[np.random.Generator(np.random.PCG64()) for _ in seeds]
                           for _ in (1, 2)]
        self.start = self.stop = 0
        self.table = None

    def install(self, domain: int, p: int, t: int) -> np.random.Generator:
        if not self.start <= t < self.stop:
            self.start, self.stop = t, min(t + STREAM_BLOCK, self.total_rounds + 1)
            self.table = _round_states(self.seeds, self.start, self.stop)
        s_hi, s_lo, i_hi, i_lo = self.table[p, domain - 1, t - self.start].tolist()
        # PCG64's seeding: inc = 2 initseq + 1, then two LCG steps from 0
        # with initstate added between them
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        generator = self.generators[domain - 1][p]
        generator.bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        return generator


@dataclass(frozen=True)
class RunSettings:
    """Everything a training loop needs besides the data and budgets."""

    mechanism: MechanismKind
    clients_per_round: int
    total_rounds: int
    estimation_rounds: int
    clip_bound: float
    loss_cap: float
    # eta_t = lr_initial / (1 + t / lr_decay_horizon), the step size
    # 2 / (mu (gamma + t)) of the bound with gamma = lr_decay_horizon and
    # mu = 2 / (lr_initial * lr_decay_horizon)
    lr_initial: float
    lr_decay_horizon: float
    c2: float = 1.0
    # dp_enabled=False zeroes all noise AND disables budget accounting and
    # participation caps, so the biased algorithm under a uniform plan reduces
    # bit-exactly to FedSGD (diagnostic mode, not a privacy mode).
    dp_enabled: bool = True
    force_uniform_plan: bool = False
    record_weights: bool = False

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
        if not self.clip_bound > 0:
            raise ParameterError("clip_bound must be positive")
        if not self.loss_cap >= 0:
            raise ParameterError("loss_cap must be nonnegative")
        if not self.c2 > 0:
            raise ParameterError("c2 must be positive")
        if not self.lr_initial > 0:
            raise ParameterError("lr_initial must be positive")
        if not self.lr_decay_horizon > 0:
            raise ParameterError("lr_decay_horizon must be positive")

    @cached_property
    def clip(self) -> ClipConfig:
        return ClipConfig.for_mechanism(self.mechanism, self.clip_bound)

    def learning_rate(self, t: int) -> float:
        """The step size eta_t of round t >= 1."""
        if t < 1:
            raise ParameterError(f"round index must be >= 1, got {t}")
        return self.lr_initial / (1.0 + t / self.lr_decay_horizon)


@dataclass
class FederatedProblem:
    """A model kind, the clients' rows, budgets, and the server test set.

    `train` holds the training rows in one block, and `rows` orders them by
    client: client n owns the rows `rows[row_start[n]:row_start[n] +
    num_samples[n]]` of `train`, where `row_start[n]` is the sum of the
    counts before n. `budgets` is one `PrivacyBudget` whose fields are
    columns with one entry per client; a run copies them, so runs on one
    problem start alike."""

    model: LinearRegression | LogisticRegression
    train: Dataset
    rows: np.ndarray
    num_samples: np.ndarray
    budgets: PrivacyBudget
    test_data: Dataset

    def __post_init__(self):
        rows = self.rows = np.asarray(self.rows)
        if (rows.ndim != 1 or rows.dtype.kind not in "iu" or len(rows) != self.train.num_samples
                or rows.min() < 0 or rows.max() >= self.train.num_samples):
            raise ParameterError(f"rows must be a 1-d integer column of the "
                                 f"{self.train.num_samples} training row numbers, got {rows!r}")
        num_samples = self.num_samples = np.asarray(self.num_samples)
        # summed as Python ints, so no entry can wrap the total around
        if (num_samples.ndim != 1 or len(num_samples) == 0 or num_samples.dtype.kind not in "iu"
                or num_samples.min() < 1 or sum(num_samples.tolist()) != len(rows)):
            raise ParameterError(f"num_samples must be a 1-d integer column of counts >= 1, "
                                 f"one per client, summing to the {len(rows)} "
                                 f"training rows, got {num_samples!r}")
        shape = np.shape(getattr(self.budgets, "epsilon", None))
        if shape != num_samples.shape:
            raise ParameterError(f"budgets must be columns of shape {num_samples.shape}, "
                                 f"one entry per client, got shape {shape}")
        for name, data in (("training", self.train), ("test", self.test_data)):
            if data.feature_dim != self.model.feature_dim:
                raise ParameterError(f"{name} feature_dim {data.feature_dim} "
                                     f"!= model {self.model.feature_dim}")
        if self.model.is_classification:
            # one pass over every label, training and test rows together
            labels = np.concatenate([self.train.targets, self.test_data.targets])
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
        return len(self.num_samples)


# slotted: a run keeps one per round, so a lock-step batch holds thousands
@dataclass(frozen=True, slots=True)
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
    """What a run produced. Per-client facts stay in arrays: the run's
    `clients` columns at the end of the run, the realised participations of
    each stage that ran, and, with a stage-two plan, each client's
    stage-two slice and epsilon remaining at the replan. `ledger` builds
    the per-client `ClientLedger` view from them on access."""

    algorithm: str
    seed: int
    rounds: list
    final_state: ModelState
    final_test_loss: float
    final_test_accuracy: float | None
    plan_stage1: SelectionPlan
    plan_stage2: SelectionPlan | None
    estimated_params: EstimatedParams | None
    ended_early: bool
    settings: RunSettings
    clients: ClientArrays
    stage_realised: tuple
    stage2_slices: np.ndarray | None
    epsilon_at_replan: np.ndarray | None
    weight_trajectory: np.ndarray | None = None

    @property
    def ledger(self) -> list:
        clients = self.clients
        num_clients = len(clients.epsilon)
        stage1_realised, stage2_realised = ([r.tolist() for r in self.stage_realised]
                                            + [[0] * num_clients])[:2]
        if self.plan_stage2 is not None:
            stage2_planned = self.plan_stage2.counts.tolist()
            stage2_per_round = [e if p else None for e, p in
                                zip(self.stage2_slices.tolist(), stage2_planned)]
            at_replan = self.epsilon_at_replan.tolist()
        else:
            stage2_planned = stage2_per_round = at_replan = [None] * num_clients
        return [
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
                clients.epsilon_consumed.tolist(), clients.slice_sum.tolist(),
                stage1_realised, stage2_realised, self.plan_stage1.counts.tolist(),
                stage2_planned, stage2_per_round, at_replan,
                clients.exhausted.tolist(), clients.trained_after_exhaustion.tolist()))
        ]


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
    never eligible again. `stage` counts the stages installed.

    Client n trains on the rows `rows[row_start[n]:row_start[n] +
    num_samples[n]]` of `train`, its problem's row order and block.
    `stacked` builds one instance for several runs on one or more problems,
    and each run's own instance as views of its entries.
    """

    # the per-client columns, one entry per client
    _COLUMNS = ("num_samples", "row_start", "epsilon", "delta", "epsilon_remaining",
                "delta_remaining", "planned", "stage_count", "stage_epsilon",
                "stage_delta", "slice_epsilon", "slice_delta", "slice_sum", "exhausted",
                "trained_after_exhaustion")

    def __init__(self, train: Dataset, rows: np.ndarray, num_samples: np.ndarray,
                 budgets: PrivacyBudget):
        n = len(num_samples)
        # the problem's checked block and row order; client n's rows start at
        # rows[row_start[n]]
        self.train = train
        self.rows = rows
        self.num_samples = num_samples
        self.row_start = np.cumsum(num_samples) - num_samples
        # copies: the run updates them in place
        self.epsilon = np.array(budgets.epsilon, dtype=float)
        self.delta = np.array(budgets.delta, dtype=float)
        self.epsilon_remaining = np.array(budgets.epsilon_remaining, dtype=float)
        self.delta_remaining = np.array(budgets.delta_remaining, dtype=float)
        self.planned = np.zeros(n, dtype=int)
        self.stage_count = np.zeros(n, dtype=int)
        self.stage_epsilon = np.zeros(n)
        self.stage_delta = np.zeros(n)
        self.slice_epsilon = np.zeros(n)
        self.slice_delta = np.zeros(n)
        self.slice_sum = np.zeros(n)
        self.exhausted = np.array(budgets.exhausted, dtype=bool)
        self.trained_after_exhaustion = np.zeros(n, dtype=bool)
        self.stage = 0

    @classmethod
    def stacked(cls, problems, runs: int) -> tuple:
        """(block, views): the client state of `runs` runs on each of
        `problems`, a list of `FederatedProblem`s that share N and the
        model's kind and dimensions.

        Run g = p * runs + a, the a-th run on problem p, has its client n at
        entry g * N + n of `block`, each entry starting as a run of its own
        starts, and `views[g]` is run g's own instance, whose columns are
        views of the block's entries g * N .. (g + 1) * N - 1. A round updates
        the block for every run at once, and each run reads and installs its
        stages through its view.

        One problem's block reads that problem's row block and row order as
        they are. Several problems' rows are copied once into one read-only
        block, problem p's after problem p - 1's, and their row orders into
        one order shifted to match, so a round still gathers its rows at
        once: the block holds all the problems' rows at once. A view still
        reads its own problem's rows, through that problem's own row order
        and row starts, as a run of its own does.
        """
        problems = list(problems)
        if not problems:
            raise ParameterError("no problem to stack")
        shapes = [(p.num_clients, type(p.model), p.model.feature_dim, p.model.dim)
                  for p in problems]
        if len(set(shapes)) > 1:
            raise ParameterError(f"stacked problems must share N and the model's kind and "
                                 f"dimensions, got (N, model, feature_dim, dim) {shapes}")
        n = problems[0].num_clients
        ones = [cls(p.train, p.rows, p.num_samples, p.budgets) for p in problems]
        # problem p's rows, and its entries of the row order, start at
        # offsets[p] of the block's
        offsets = np.cumsum([0] + [p.train.num_samples for p in problems[:-1]]).tolist()
        if len(problems) == 1:
            train, rows = problems[0].train, problems[0].rows
        else:
            features = np.concatenate([p.train.features for p in problems])
            targets = np.concatenate([p.train.targets for p in problems])
            rows = np.concatenate([p.rows + offset for p, offset in zip(problems, offsets)])
            features.flags.writeable = targets.flags.writeable = False
            # rows of checked blocks, so not checked again
            train, = _unchecked(Dataset, [(features, targets)])
        total = len(problems) * runs
        block = object.__new__(cls)
        block.train, block.rows, block.stage = train, rows, 0
        parts = {name: [getattr(one, name) for one in ones] for name in cls._COLUMNS}
        parts["row_start"] = [one.row_start + offset for one, offset in zip(ones, offsets)]
        for name, columns in parts.items():
            setattr(block, name, columns[0] if total == 1 else np.concatenate(
                [column for column in columns for _ in range(runs)]))
        views = []
        for g in range(total):
            p = g // runs
            view = object.__new__(cls)
            view.train, view.rows, view.stage = problems[p].train, problems[p].rows, 0
            for name in cls._COLUMNS:
                setattr(view, name, getattr(block, name)[g * n:(g + 1) * n])
            if offsets[p]:
                view.row_start = ones[p].row_start
            views.append(view)
        return block, views

    @property
    def epsilon_consumed(self) -> np.ndarray:
        return self.epsilon - self.epsilon_remaining

    def budget(self, ids: np.ndarray) -> PrivacyBudget:
        """The budgets of clients `ids`, built from the run's columns without
        a second check: they start from the problem's checked budgets and
        only `consume_budget` moves them."""
        budget, = _unchecked(PrivacyBudget, [(
            self.epsilon[ids], self.delta[ids],
            self.epsilon_remaining[ids], self.delta_remaining[ids])])
        return budget

    def install(self, counts, settings: RunSettings | None = None) -> None:
        """Start a stage: planned counts and, in a DP run (given the run's
        `settings`), the stage budgets and slices of the funded clients.

        The funded clients are the planned ones whose budget is not
        exhausted. Their stage columns are checked here, once per stage, by
        calibrating their noise (see `_calibrate`), so a round only does
        arithmetic on them. A failure raises ParameterError naming the stage
        and the clients that fail.
        """
        # in place, as every column, so a stacked run's view stays a view
        self.planned[:] = counts
        self.stage_count[:] = 0
        self.stage += 1
        if settings is None:
            return
        fresh = np.flatnonzero((self.planned > 0) & ~self.exhausted)
        self.stage_epsilon[fresh] = self.epsilon_remaining[fresh]
        self.stage_delta[fresh] = self.delta_remaining[fresh]
        self.slice_epsilon[fresh] = self.stage_epsilon[fresh] / self.planned[fresh]
        self.slice_delta[fresh] = self.stage_delta[fresh] / self.planned[fresh]
        try:
            self._calibrate(fresh, settings)
        except ParameterError as err:
            bad = [n for n in fresh.tolist() if not self._calibrates(n, settings)]
            raise ParameterError(f"stage {self.stage}: clients {bad} cannot be "
                                 f"noised: {err}") from None

    def _calibrate(self, ids: np.ndarray, settings: RunSettings) -> None:
        """Calibrate the noise of clients `ids` in the current stage at unit
        learning rate with the public primitives, whose checks raise unless
        each stage epsilon is positive, each stage delta in (0, 1) for the
        Gaussian mechanism or in [0, 1) for the Laplace one, each planned
        count and sample count at least 1 and each slice nonnegative.
        """
        mech = settings.mechanism
        sens = gradient_sensitivity(mech, 1.0, settings.clip_bound, self.num_samples[ids],
                                    settings.loss_cap, include_loss_terms=True)
        epsilon, delta, planned = (self.stage_epsilon[ids], self.stage_delta[ids],
                                   self.planned[ids])
        if mech is MechanismKind.GAUSSIAN:
            scale = gaussian_sigma(sens, epsilon, delta, planned, settings.c2)
        else:
            _check("stage delta", delta, "in [0, 1)")
            scale = laplace_scale(sens, epsilon, planned)
        NoiseSpec(mech, sens, scale, self.slice_epsilon[ids], self.slice_delta[ids], planned)

    def _calibrates(self, n: int, settings: RunSettings) -> bool:
        try:
            self._calibrate(np.array([n]), settings)
        except ParameterError:
            return False
        return True

    def candidates(self) -> np.ndarray:
        """Mask of the entries a DP run may select: not exhausted and still
        under the stage's plan."""
        return ~self.exhausted & (self.stage_count < self.planned)


@dataclass(frozen=True)
class RoundRelease:
    """What the responders of one round release: row i for entry ids[i] of
    the round's selection, every selected client being a responder.

    losses[i] holds the distorted losses at the incoming and at the locally
    updated model, in loss-reporting rounds only: `losses` is None when no
    run of the round reports, and NaN in the rows of a run that does not.
    """

    gradients: np.ndarray
    losses: np.ndarray | None


def client_round(clients: ClientArrays, ids, model: LinearRegression | LogisticRegression,
                 weights: np.ndarray, learning_rate: float, generators: list,
                 settings: RunSettings, report_losses: np.ndarray,
                 noise_enabled: np.ndarray) -> RoundRelease:
    """The selected clients' contributions to one round of R runs, computed as
    one batch.

    `clients` stacks the R runs on one or more problems (see
    `ClientArrays.stacked`), `ids` are its entries, at least one, grouped
    by run in run order, `model` is the runs' model kind and `weights` their
    (R, d) weight matrix. `report_losses` and `noise_enabled` are (R,) bool arrays and
    `generators` the R runs' noise generators; the runs that share a
    generator are consecutive. Each run's rows come out as they would from a
    round of its own on its generator.

    Every selected client responds: the selection is the responder set. The
    candidate mask (`ClientArrays.candidates`) keeps a noised run's exhausted
    and over-plan clients out of every selection, so the round does not look
    for them; a client selected past its plan or its budget is recorded in
    `stage_count` and `trained_after_exhaustion`, and the run's ledger check
    (`_check_ledger`) fails on it. A noised client must be funded by the
    stage `clients.install` started, which checked its stage columns, and
    the run's settings are trusted as `RunSettings` checked them, so the
    round calibrates the noise with the unchecked formulas. A client's
    release is eta_t times the mean of its per-sample clipped gradients,
    plus noise. The noise comes from one `sample_noise` call, one
    block per noised run, each block's rows in the order of `ids` and drawn
    from its run's generator's state on entry: the runs of a generator share
    the round's stream (common random numbers). During a loss-reporting
    round the noise vector has d+2 coordinates drawn at the joint (gradient
    + two losses) sensitivity; the last two distort eta_t * F at the incoming
    and the locally updated model, then divide by eta_t. Otherwise d
    coordinates at the gradient-only sensitivity. Budgets and stage counts
    in `clients` are updated in place.
    """
    num_runs = len(weights)
    num_clients, rest = divmod(len(clients.num_samples), num_runs)
    if rest:
        raise ParameterError(f"{len(clients.num_samples)} client entries do not stack "
                             f"{num_runs} runs")
    if report_losses.shape != (num_runs,) or noise_enabled.shape != (num_runs,):
        raise ParameterError(f"need one loss-report and one noise flag per run of {num_runs}, "
                             f"got {report_losses.shape} and {noise_enabled.shape}")
    ids = np.asarray(ids, dtype=int)
    run = ids // num_clients
    if num_runs > 1 and (run[1:] < run[:-1]).any():
        raise ParameterError("ids must be grouped by run, in run order")
    dim = model.dim
    reports = report_losses[run]
    any_report = bool(report_losses.any())
    # the responders' rows in one gather from the block through the row
    # order, responder i's at starts[i]:ends[i], and run r's responders at
    # bounds[r]:bounds[r + 1]
    counts = clients.num_samples[ids]
    ends = counts.cumsum()
    starts = ends - counts
    rows = clients.rows.take((clients.row_start[ids] - starts).repeat(counts)
                             + np.arange(ends[-1]))
    features = clients.train.features.take(rows, axis=0)
    targets = clients.train.targets.take(rows)
    bounds = run.searchsorted(np.arange(num_runs + 1)).tolist()
    present = [r for r in range(num_runs) if bounds[r] < bounds[r + 1]]
    # output gradients with each run's weights, one call per run; run r's
    # rows are edges[bounds[r]]:edges[bounds[r + 1]]
    edges = [0] + ends.tolist()
    factors = [model.output_gradients(weights[r], features[edges[bounds[r]]:edges[bounds[r + 1]]],
                                      targets[edges[bounds[r]]:edges[bounds[r + 1]]])
               for r in present]
    factors = factors[0] if len(factors) == 1 else np.concatenate(factors)
    # per-sample gradients are rank one, so they are clipped from their factors
    clipped = clip_outer_rows(factors, with_intercept(features), settings.clip)
    means = np.add.reduceat(clipped, starts, axis=0) / counts[:, None]
    # the locally updated model of the loss report takes the unnoised step
    steps = learning_rate * means

    mech = settings.mechanism
    eta = float(learning_rate)
    clip_bound, loss_cap = float(settings.clip_bound), float(settings.loss_cap)
    sens = _gradient_sensitivity(eta, clip_bound, counts, loss_cap, False)
    if reports.any():
        sens = np.where(reports, _gradient_sensitivity(eta, clip_bound, counts, loss_cap,
                                                       True), sens)
    noise = np.zeros((len(ids), dim + 2 if any_report else dim))
    noised_runs = [r for r in present if noise_enabled[r]]
    # the noised runs' rows, all of them in a round with no unnoised run
    charged = slice(None) if len(noised_runs) == len(present) else noise_enabled[run]
    own = ids[charged]
    if noised_runs:
        sens = sens[charged]
        planned = np.maximum(1, clients.planned[own])
        slice_eps, slice_delta = clients.slice_epsilon[own], clients.slice_delta[own]
        if mech is MechanismKind.GAUSSIAN:
            scale = _gaussian_sigma(sens, clients.stage_epsilon[own], clients.stage_delta[own],
                                    planned, float(settings.c2))
        else:
            scale = _laplace_scale(sens, clients.stage_epsilon[own], planned)
        # one block per noised run, in run order, each drawn from its
        # generator's stream at its start, as a run of its own draws
        if len(generators) != num_runs:
            raise ParameterError(f"{len(generators)} noise generators for {num_runs} runs")
        drawing = [generators[r] for r in noised_runs]
        # the first run of each stretch of runs that share a generator
        firsts = [gen for i, gen in enumerate(drawing) if not i or gen is not drawing[i - 1]]
        if len(set(map(id, firsts))) < len(firsts):
            raise ParameterError("runs that share a noise generator must be consecutive")
        blocks = [(bounds[r + 1] - bounds[r], dim + 2 if report_losses[r] else dim)
                  for r in noised_runs]
        spec, = _unchecked(NoiseSpec, [(mech, sens, scale, slice_eps, slice_delta, planned)])
        drawn = sample_noise(spec, blocks, drawing)
        noise[charged, :drawn.shape[1]] = drawn
    gradients = steps + noise[:, :dim]

    losses = None
    if any_report:
        losses = np.full((len(ids), 2), np.nan)
        reporting = np.flatnonzero(reports)
        if len(reporting):
            # each reporting responder's mean of its per-sample losses, each
            # capped to [0, loss_cap], at its run's weights and at its
            # locally updated model, on rows cut from the gathered ones; one
            # check covers every updated model, as `ModelState` checks one
            incoming = weights[run[reporting]]
            updated = incoming - steps[reporting]
            if not np.isfinite(updated).all():
                raise ParameterError("weights must be finite")
            mean_losses = np.empty((len(reporting), 2))
            for j, i in enumerate(reporting.tolist()):
                x, y = features[edges[i]:edges[i + 1]], targets[edges[i]:edges[i + 1]]
                for m, w in enumerate((incoming[j], updated[j])):
                    capped = np.clip(model.per_sample_losses(w, x, y), 0.0, loss_cap)
                    mean_losses[j, m] = capped.sum() / len(capped)
            losses[reporting] = (eta * mean_losses + noise[reporting, dim:]) / eta

    if noised_runs:
        before = clients.epsilon_remaining[own]
        budget, exhausted = consume_budget(clients.budget(own), slice_eps, slice_delta)
        clients.epsilon_remaining[own] = budget.epsilon_remaining
        clients.delta_remaining[own] = budget.delta_remaining
        clients.slice_sum[own] += before - np.maximum(0.0, before - slice_eps)
        clients.trained_after_exhaustion[own] |= clients.exhausted[own]
        clients.exhausted[own] |= exhausted
    clients.stage_count[ids] += 1
    return RoundRelease(gradients, losses)


def aggregate(gradients, k, starts=(0,)) -> np.ndarray:
    """The runs' updates: the sum of each run's noisy gradients over its
    nominal K, one row per run.

    `gradients` is a stacked (responders, d) array whose rows are several
    runs' responders, run r's from starts[r] up to the next start, and `k`
    one divisor for every run or one per run.

    The runs' rows are laid out as one (runs, most rows, d) block padded
    with -0.0, which adds exactly nothing, and summed over its middle axis
    at once. For d >= 2 numpy adds that axis's rows in order, as it adds a
    run's own (rows, d) block over its first axis, so each run's sum has
    the bits of a call of its own. (`np.add.reduceat` does not: it adds a
    run's first row to the sum of the others.)
    """
    if len(gradients) == 0:
        raise ParameterError("cannot aggregate an empty gradient list")
    gradients = np.asarray(gradients)
    divisors = np.asarray(k)
    # few runs, so their bounds are Python ints
    bounds = [int(start) for start in starts] + [len(gradients)]
    counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    if not counts or bounds[0] != 0 or min(counts) < 1:
        raise ParameterError(f"starts {bounds[:-1]} must rise from 0 through the "
                             f"{len(gradients)} rows, one nonempty run each")
    shape = (len(counts), max(counts)) + gradients.shape[1:]
    if min(counts) == shape[1]:
        block = gradients.reshape(shape)
    else:
        block = np.full(shape, -0.0)
        block[np.arange(len(counts)).repeat(counts),
              np.arange(len(gradients)) - np.repeat(bounds[:-1], counts)] = gradients
    return block.sum(axis=1) / divisors.reshape(-1, 1)


def sample_selection(probabilities: np.ndarray, candidates: np.ndarray, k: int,
                     generators: list) -> np.ndarray:
    """Weighted sampling without replacement from each run's candidate set.

    `probabilities` is a (G, N) matrix, one row per run, `candidates` a
    (G, N) boolean mask of each row's candidates, and `generators` a list of
    one generator per row (None for a row without candidates). Returns the
    sorted array of the flat ids g * N + n of every row's selection.

    Efraimidis-Spirakis: one uniform u_n per client id, key log(u_n) / w_n for
    each positive-weight candidate, and the k largest keys win. This has the
    distribution of k successive weighted draws that renormalize over the
    candidates left (Efraimidis & Spirakis, IPL 97(5), 2006). A client's key
    does not depend on the other candidates, so two runs sharing a
    generator's state pick the same clients wherever their candidate sets
    agree. If a row's candidate set has at most k members, or at most k
    positive weights, those are selected without drawing; an empty set
    selects nothing.

    Each row is sampled as it would be alone from its generator's state on
    entry: the rows that share a generator share its N uniforms, drawn once,
    and a generator that no row draws from is left as it is.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    mask = np.asarray(candidates, dtype=bool)
    if probabilities.ndim != 2 or mask.shape != probabilities.shape:
        raise ParameterError(f"need a (G, N) probability matrix and a candidate mask of its "
                             f"shape, got {probabilities.shape} and {mask.shape}")
    num_rows, num_clients = probabilities.shape
    if len(generators) != num_rows:
        raise ParameterError(f"{len(generators)} generators for {num_rows} rows")
    # a row within the first shortcut selects every candidate; past it, its
    # positive-weight candidates, or draws among them when it has more than
    # k. Its candidates' weights must then be nonnegative (a NaN fails too).
    past = mask.sum(axis=1) > k
    chosen, drawing = mask, []
    if past.any():
        if (not probabilities.min(initial=0.0) >= 0
                and (mask[past] & ~(probabilities[past] >= 0)).any()):
            raise ParameterError("selection probabilities must be nonnegative")
        chosen = mask & (probabilities > 0)
        if not past.all():
            chosen[~past] = mask[~past]
        drawing = np.flatnonzero(chosen.sum(axis=1) > k)
    if len(drawing):
        # each drawing row's generator, numbered in order of first use
        slots = {}
        which = [slots.setdefault(generators[g], len(slots)) for g in drawing.tolist()]
        u = np.array([gen.random(num_clients) for gen in slots])
        if len(slots) < len(which):
            u = u[which]
        # the negated keys -log(u_n) / w_n of a row's positive candidates and
        # +inf elsewhere: the k smallest are the k largest keys. A candidate's
        # infinite key (u_n = 0, or w_n under about 1e-307) is capped at the
        # largest float, so it still sorts before every non-candidate.
        rows = slice(None) if len(drawing) == num_rows else drawing
        drawn = chosen[rows]
        keys = np.where(drawn, np.minimum(-np.log(u) / np.where(drawn, probabilities[rows], 1.0),
                                          np.finfo(float).max), np.inf)
        top = keys.argpartition(k - 1, axis=1)[:, :k]
        chosen[rows] = False
        chosen[drawing[:, None], top] = True
    return np.flatnonzero(chosen)


def _uniform_plan(num_clients: int, horizon: int, k: int) -> SelectionPlan:
    """The budget-only plan with every Phi_n equal."""
    return approximate_plan(np.ones(num_clients), horizon * k, 1, per_round_selected=k)


def run_dpfl_bcs(problem: FederatedProblem, settings: RunSettings, seed: int,
                 on_round=None) -> RunResult:
    """Two-stage biased-selection run."""
    (result,), = run_lockstep_seeds([problem], [seed], settings, ["dpfl_bcs"], on_round)
    return result


def run_baseline(kind: str, problem: FederatedProblem, settings: RunSettings, seed: int,
                 on_round=None) -> RunResult:
    """Single-stage reference run: fedsgd, uniform_dp, or weiavg."""
    if kind not in BASELINE_KINDS:
        raise ParameterError(f"unknown baseline {kind!r}; expected one of {BASELINE_KINDS}")
    (result,), = run_lockstep_seeds([problem], [seed], settings, [kind], on_round)
    return result


def run_lockstep_seeds(problems, seeds, settings: RunSettings, algorithms,
                       on_round=None) -> list:
    """Run each of `algorithms` on each (problem, seed) pair of `problems`
    and `seeds`, all together, one round at a time; returns one list of
    `RunResult`s per seed, in order, each in the order of `algorithms`.

    For each seed, round t installs, once, its selection generator of
    SeedSequence([seed, 1, t]) and its noise generator of [seed, 2, t], with
    PCG64, from a `RoundStreams` table that computes the seeding words of a
    block of rounds for every seed at once: a seed's runs share every
    client's selection uniform, drawn once, and the unit noise of every
    responder row (common random numbers), and each run's outputs are those
    of a run of its own. The problems must share N, the model's dimensions
    and the shape of their test blocks.

    The runs' client state is one `ClientArrays.stacked` block, which holds
    every seed's problem at once. Their selection probabilities and weights
    are the rows of two (runs, ...) matrices, and the seeds' test blocks are
    copied once into one (seeds, rows, feature_dim) block. A round makes one
    call for every run to each of `sample_selection`, `client_round`,
    `aggregate` and the model's `metrics`, then each run records the round
    and, at T0, replans on its own. An exception of any run ends the whole
    call. One raised in a run's own step (its set-up, round record, replan
    or ledger check), and the non-finite weights of a run's update, carry
    `failed_run = (seed, algorithm)` naming that run; one raised in a shared
    call carries none.
    `on_round(record)`, if given, is called with each run's `RoundRecord` as
    the run finishes the round, seeds in order and each seed's runs in the
    order of `algorithms`.
    """
    problems, seeds = list(problems), [int(seed) for seed in seeds]
    algorithms = list(algorithms)
    if not algorithms:
        raise ParameterError("no algorithm to run")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {algorithm!r}; "
                                 f"expected one of {ALGORITHMS}")
    if "dpfl_bcs" in algorithms and settings.estimation_rounds < 2:
        raise ParameterError(
            "the estimators need estimation_rounds >= 2 "
            "(the skew estimate divides by estimation_rounds - 1)")
    if len(problems) != len(seeds):
        raise ParameterError(f"{len(problems)} problems for {len(seeds)} seeds")
    if any(seed < 0 for seed in seeds):
        raise ParameterError("seed must be nonnegative")
    block, views = ClientArrays.stacked(problems, len(algorithms))
    test_features, test_targets = _test_blocks(problems)
    num_clients = problems[0].num_clients
    k = settings.clients_per_round
    if k > num_clients:
        raise ParameterError(f"clients_per_round {k} exceeds num_clients {num_clients}")
    model = problems[0].model
    # run g = p * A + a is algorithm a on seed p's problem; its selection
    # probabilities and weights are row g of these
    num_seeds, width = len(seeds), len(algorithms)
    probabilities = np.empty((len(views), num_clients))
    weights = np.empty((len(views), model.dim))
    runs = []
    for g, view in enumerate(views):
        seed, algorithm = seeds[g // width], algorithms[g % width]
        try:
            runs.append(_Run(problems[g // width], settings, algorithm, seed, view,
                             probabilities[g], weights[g]))
        except Exception as exc:
            exc.failed_run = (seed, algorithm)
            raise
    seed_of = [g // width for g in range(len(runs))]
    dp = np.array([run.dp for run in runs])
    two_stage = np.array([run.two_stage for run in runs])
    weiavg = np.array([run.algorithm == "weiavg" for run in runs])
    # every entry is a candidate of a non-DP run
    free = [g for g, run in enumerate(runs) if not run.dp]
    # the nominal K divides an update, except weiavg's budget-weighted sum
    divisors = np.where(weiavg, 1, k)
    # run g's client n is entry g * N + n of the block
    offsets = np.arange(len(runs) + 1) * num_clients
    generators = RoundStreams(seeds, settings.total_rounds)

    for t in range(1, settings.total_rounds + 1):
        candidates = block.candidates().reshape(len(runs), num_clients)
        candidates[free] = True
        candidates[[g for g, run in enumerate(runs) if run.ended]] = False
        selecting = candidates.any(axis=1).tolist()
        for run, on in zip(runs, selecting):
            if not (run.ended or on):
                run._end_early("round %d: candidate set empty, ending run early", t)
        streams = [generators.install(1, p, t) if any(selecting[p * width:(p + 1) * width])
                   else None for p in range(num_seeds)]
        ids = sample_selection(probabilities, candidates, k, [streams[p] for p in seed_of])
        # run g's selected entries are bounds[g]:bounds[g + 1] of ids, and
        # rows bounds[g]:bounds[g + 1] of the release
        bounds = ids.searchsorted(offsets).tolist()
        batch = [g for g in range(len(runs)) if bounds[g] < bounds[g + 1]]
        if not batch:
            break
        streams = [generators.install(2, p, t) if bounds[p * width] < bounds[(p + 1) * width]
                   else None for p in range(num_seeds)]
        release = client_round(block, ids, model, weights, settings.learning_rate(t),
                               [streams[p] for p in seed_of], settings,
                               two_stage & (t <= settings.estimation_rounds), dp)
        rows = slice(None) if len(batch) == len(runs) else batch
        weights[rows] -= aggregate(
            _weighted(ids, release.gradients, block.epsilon, num_clients, weiavg, batch,
                      bounds), divisors[rows], [bounds[g] for g in batch])
        if not np.isfinite(weights[rows]).all():
            exc = ParameterError("weights must be finite")
            runs[next(g for g in batch if not np.isfinite(weights[g]).all())].blame(exc)
            raise exc
        losses, accuracies = model.metrics(weights.reshape(num_seeds, width, model.dim),
                                           test_features, test_targets)
        losses = losses.ravel().tolist()
        accuracies = [None] * len(runs) if accuracies is None else accuracies.ravel().tolist()
        for g in batch:
            run, lo, hi = runs[g], bounds[g], bounds[g + 1]
            try:
                record = run.record(t, ids[lo:hi] - g * num_clients,
                                    None if release.losses is None else release.losses[lo:hi],
                                    losses[g], accuracies[g])
                run.finish(t, record, on_round)
            except Exception as exc:
                run.blame(exc)
                raise
    results = []
    for run in runs:
        try:
            results.append(run.result())
        except Exception as exc:
            run.blame(exc)
            raise
    return [results[p * width:(p + 1) * width] for p in range(num_seeds)]


def _test_blocks(problems) -> tuple:
    """The problems' test blocks as one (problems, rows, feature_dim) block of
    features and one (problems, rows) block of targets: views of one
    problem's, and a copy of several problems', which must share a shape."""
    tests = [p.test_data for p in problems]
    shapes = [test.features.shape for test in tests]
    if len(set(shapes)) > 1:
        raise ParameterError(f"the seeds' test blocks must share a shape, got {shapes}")
    if len(tests) == 1:
        return tests[0].features[None], tests[0].targets[None]
    return (np.stack([test.features for test in tests]),
            np.stack([test.targets for test in tests]))


def _weighted(ids: np.ndarray, gradients: np.ndarray, epsilon: np.ndarray, num_clients: int,
              weiavg: np.ndarray, batch: list, bounds: list) -> np.ndarray:
    """The round's gradients, row i for block entry ids[i], with the rows of
    each weiavg run weighted by its responders' budgets (`epsilon`, by block
    entry) over their sum. The round's runs are `batch`, run g's rows
    bounds[g]:bounds[g + 1]. numpy adds one run's budgets pairwise, and no
    sum over several runs' rows matches that, so each run sums its own."""
    runs = [g for g in batch if weiavg[g]]
    if not runs:
        return gradients
    eps = epsilon[ids]
    totals = np.ones(len(weiavg))
    for g in runs:
        totals[g] = eps[bounds[g]:bounds[g + 1]].sum()
    rows = ids // num_clients
    return np.where(weiavg[rows][:, None], (eps / totals[rows])[:, None] * gradients,
                    gradients)


class _Run:
    """One algorithm's run inside `run_lockstep_seeds`: its plans, records
    and stages, over its own view of the block's client columns and its own
    rows of the batch's selection probabilities and weights."""

    def __init__(self, problem: FederatedProblem, settings: RunSettings, algorithm: str,
                 seed: int, clients: ClientArrays, select_probs: np.ndarray,
                 weights: np.ndarray):
        self.problem, self.settings, self.algorithm = problem, settings, algorithm
        self.seed = seed
        self.clients = clients
        model = problem.model
        num_clients = problem.num_clients
        k = settings.clients_per_round
        total_rounds = settings.total_rounds
        self.two_stage = algorithm == "dpfl_bcs"
        self.dp = settings.dp_enabled and algorithm != "fedsgd"
        self.epsilon_at_start = clients.epsilon_remaining.copy()

        # (Lambda, Phi_n) at the incoming budgets, computed once when a plan
        # first needs them
        self.initial_constants = None
        self.uniform_probs = np.full(num_clients, 1.0 / num_clients)
        if self.two_stage and not settings.force_uniform_plan:
            self.initial_constants = _initial_constants(clients, settings, model.dim)
            self.plan1 = approximate_plan(self.initial_constants[1], k * total_rounds,
                                          settings.mechanism.noise_exponent,
                                          per_round_selected=k)
            select_probs[:] = self.plan1.probabilities
        else:
            self.plan1 = _uniform_plan(num_clients, total_rounds, k)
            select_probs[:] = self.uniform_probs
        # the batch's row, which a replan rewrites
        self.select_probs = select_probs
        clients.install(self.plan1.counts, settings if self.dp else None)
        # (realised, planned) participations per stage, filled as stages end
        self.stages = []
        self.stage2_slices = self.epsilon_at_replan = None
        weights[:] = model.init_weights()
        # the batch's row, which the batch's update moves in place
        self.weights = weights
        self.trajectory = [weights.copy()] if settings.record_weights else None
        self.records = []
        self.plan2 = self.est_params = None
        self.ended = self.ended_early = False

    def blame(self, exc: Exception) -> None:
        """Name this run as the one whose own step raised `exc`."""
        exc.failed_run = (self.seed, self.algorithm)

    def _end_early(self, reason: str, *args) -> None:
        logger.info(reason, *args)
        self.ended = self.ended_early = True

    def reports(self, t: int) -> bool:
        """Whether round t's responders report their losses."""
        return self.two_stage and t <= self.settings.estimation_rounds

    def record(self, t: int, responders: np.ndarray, losses: np.ndarray | None,
               test_loss: float, test_accuracy: float | None) -> RoundRecord:
        """Round t's record: its responders, their loss reports in a
        loss-reporting round, and the test metrics at the updated weights."""
        responders = tuple(responders.tolist())
        if self.reports(t):
            losses = dict(zip(responders, map(tuple, losses.tolist())))
        else:
            losses = None
        stage = 1 if (not self.two_stage or t <= self.settings.estimation_rounds) else 2
        return RoundRecord(t=t, stage=stage, selected=responders, losses=losses,
                           test_loss=test_loss, test_accuracy=test_accuracy)

    def finish(self, t: int, record: RoundRecord, on_round) -> None:
        """Keep round t's record, pass it to `on_round` and, at T0, replan."""
        settings, clients = self.settings, self.clients
        if self.trajectory is not None:
            self.trajectory.append(self.weights.copy())
        self.records.append(record)
        logger.info("round %d stage %d |S|=%d test_loss=%.6f", t, record.stage,
                    len(record.selected), record.test_loss)
        if on_round is not None:
            on_round(record)

        if self.two_stage and t == settings.estimation_rounds:
            self.stages.append((clients.stage_count.copy(), clients.planned.copy()))
            self.plan2, self.est_params, self.select_probs[:] = _replan(
                self.problem, settings, clients, self.initial_constants,
                StageOneLog.from_rounds(r.losses for r in self.records), self.dp,
                self.uniform_probs)
            if self.plan2 is None:
                self._end_early("no client can fund stage two, ending run early")
                return
            clients.install(self.plan2.counts, settings if self.dp else None)
            self.stage2_slices = clients.slice_epsilon.copy()
            self.epsilon_at_replan = clients.epsilon_remaining.copy()

    def result(self) -> RunResult:
        """The run's result, after checking its privacy ledger."""
        clients, model = self.clients, self.problem.model
        if self.plan2 is not None or not self.stages:
            # close the stage in progress; a replan that found no plan closed it
            self.stages.append((clients.stage_count.copy(), clients.planned.copy()))
        _check_ledger(clients, self.epsilon_at_start, self.stages if self.dp else [])
        weights = self.weights.copy()
        if self.records:
            final_loss = self.records[-1].test_loss
            final_accuracy = self.records[-1].test_accuracy
        else:
            test = self.problem.test_data
            loss, accuracy = model.metrics(weights[None, None], test.features[None],
                                           test.targets[None])
            final_loss = float(loss[0, 0])
            final_accuracy = None if accuracy is None else float(accuracy[0, 0])
        return RunResult(
            algorithm=self.algorithm, seed=self.seed, rounds=self.records,
            final_state=ModelState(weights, model), final_test_loss=final_loss,
            final_test_accuracy=final_accuracy, plan_stage1=self.plan1,
            plan_stage2=self.plan2, estimated_params=self.est_params,
            ended_early=self.ended_early, settings=self.settings, clients=clients,
            stage_realised=tuple(realised for realised, _ in self.stages),
            stage2_slices=self.stage2_slices, epsilon_at_replan=self.epsilon_at_replan,
            weight_trajectory=(np.array(self.trajectory) if self.trajectory is not None
                               else None))


def _check_ledger(clients: ClientArrays, epsilon_at_start: np.ndarray,
                  stages: list) -> None:
    """Raise StateError unless the run's privacy ledger is consistent.

    Consumption stays within the budget and equals the sum of the slices
    charged; realised participation stays within each stage's plan (pass no
    stages when the plan does not cap participation); no client trained
    after its budget ran out.
    """
    consumed = epsilon_at_start - clients.epsilon_remaining
    bad = np.flatnonzero(clients.epsilon_consumed > clients.epsilon + LEDGER_TOL)
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


def _initial_constants(clients: ClientArrays, settings: RunSettings,
                       model_dim: int) -> tuple[float, np.ndarray]:
    """(Lambda, Phi_n) of every client at its incoming budget."""
    return compute_phi_lambda(settings.mechanism, model_dim, settings.clip_bound,
                              settings.c2, clients.epsilon, clients.delta,
                              clients.num_samples)


def fit_stage_one(log: StageOneLog, lam: float, phi: np.ndarray, k: int,
                  z: int) -> EstimatedParams:
    """Fit the bound's parameters to a stage-one log of T0 = log.num_rounds
    rounds over N = len(phi) clients, with (Lambda, Phi_n) at the incoming
    budgets. The run's replan and the offline replay both call it, so the two
    agree bit for bit. Both give it T0 >= 2, K >= 1, a nonempty report per
    round, ids in 0..N-1 and finite losses, and it checks none of them. It
    refuses a Phi_n that overflowed (an epsilon whose square underflows),
    which neither caller rules out: the replay reads the budgets from the
    history, and a run under `force_uniform_plan` plans without Phi_n."""
    if not np.isfinite(phi).all():
        n = int(np.argmin(np.isfinite(phi)))
        raise ParameterError(f"client {n}: its incoming budget gives Phi_n = {phi[n]}")
    t0 = log.num_rounds
    gamma_hat = estimate_gamma_n(log, len(phi))
    rho_hat = estimate_rho_min(log, k, t0)
    observed = observed_stage_loss(log, t0)
    return estimate_problem_params(observed, log, lam, phi, gamma_hat, rho_hat, k, z)


def _replan(problem: FederatedProblem, settings: RunSettings, clients: ClientArrays,
            initial_constants, log: StageOneLog, dp: bool, uniform_probs: np.ndarray):
    """Estimate bound parameters and solve the stage-two plan at t = T0.

    `initial_constants` is (Lambda, Phi_n) at the incoming budgets, or None
    when stage one did not need them."""
    model = problem.model
    mech = settings.mechanism
    z = mech.noise_exponent
    k = settings.clients_per_round
    num_clients = problem.num_clients
    horizon = settings.total_rounds - settings.estimation_rounds

    lam, phi_initial = initial_constants or _initial_constants(clients, settings, model.dim)
    est = fit_stage_one(log, lam, phi_initial, k, z)

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
        _, phi_active = compute_phi_lambda(
            mech, model.dim, settings.clip_bound, settings.c2,
            clients.epsilon_remaining[active], clients.delta_remaining[active],
            clients.num_samples[active], client_ids=active)
    else:
        phi_active = phi_initial[active]
    gamma_for_plan = winsorize_upper(est.gamma_hat_n)
    params_active = replace(est, phi_n=phi_active, gamma_hat_n=gamma_for_plan[active])
    sub = optimal_plan(params_active, horizon, k, z)
    counts = np.zeros(num_clients, dtype=int)
    counts[active] = sub.counts
    plan2 = SelectionPlan(counts, horizon, k)
    return plan2, est, plan2.probabilities
