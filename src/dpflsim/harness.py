"""Experiment orchestration: build problems from configs, run paired
multi-seed comparisons, and persist line-delimited run histories."""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .data import (
    BudgetSamplingConfig,
    Dataset,
    PartitionConfig,
    dirichlet_partition,
    generate_synthetic_classification,
    generate_synthetic_regression,
    ingest_csv,
    sample_budgets,
)
from .engine import (
    FederatedProblem,
    RoundRecord,
    RunResult,
    RunSettings,
    fit_stage_one,
    run_baseline,
    run_dpfl_bcs,
    run_lockstep_seeds,
)
from .errors import ConfigError, StateError
from .mechanisms import MechanismKind
from .models import LinearRegression, LogisticRegression
from .selection import EstimatedParams, StageOneLog, compute_phi_lambda

logger = logging.getLogger(__name__)

HISTORY_FORMAT_VERSION = 5

# Seed-derivation domains; selection and noise streams use 1 and 2 inside the
# engine, data-side streams start at 10.
_DOMAIN_DATA = 10
_DOMAIN_PARTITION = 11
_DOMAIN_BUDGETS = 12
_DOMAIN_SPLIT = 13

# `run_comparison` runs consecutive seeds in one lock-step batch while their
# training rows (features and targets) add up to at most this many bytes; a
# seed with more is a batch of its own. A batch holds its seeds' problems, a
# copy of their rows and their runs' results at once. At feature_dim 5 a seed
# takes 48 bytes a row: batches of 10 seeds of 2,000 rows ran 1.2-1.3x as
# fast as one seed at a time, while batching seeds of 20,000 rows gained
# nothing and only raised the peak RSS, so those run alone.
BATCH_BYTES = 2 ** 20
# A batch also closes at this many seeds, because it holds its runs' results
# until its last round, and narrow rows put many seeds under BATCH_BYTES. On
# a comparison of 200 seeds of 50 rows at feature_dim 1 (N = 20, T = 200),
# batches of 10, 20, 40 and 100 seeds ran at about 55k, 63k, 67k and 66k
# client-rounds/s, at 42, 45, 51 and 68 MB of peak RSS.
BATCH_SEEDS = 40


def _derived_seed(seed: int, domain: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(domain)]).generate_state(1)[0])


def build_problem(config: ExperimentConfig) -> FederatedProblem:
    """Dataset, partition, budgets, and test split for one experiment seed."""
    config.validate()
    data_seed = _derived_seed(config.seed, _DOMAIN_DATA)
    if config.dataset == "synthetic_regression":
        total = config.num_samples + config.test_samples
        full, _ = generate_synthetic_regression(
            total, config.feature_dim, config.target_noise_std, data_seed)
        train = Dataset(full.features[:config.num_samples], full.targets[:config.num_samples])
        test = full.subset(np.arange(config.num_samples, total))
        model = LinearRegression(config.feature_dim)
    elif config.dataset == "synthetic_classification":
        total = config.num_samples + config.test_samples
        full = generate_synthetic_classification(
            total, config.num_classes, config.feature_dim, config.class_separation,
            data_seed)
        train = Dataset(full.features[:config.num_samples], full.targets[:config.num_samples])
        test = full.subset(np.arange(config.num_samples, total))
        model = LogisticRegression(config.feature_dim, config.num_classes)
    else:
        full, dropped = ingest_csv(config.csv_path, config.csv_target_column,
                                   config.feature_columns(), config.csv_standardize)
        if dropped:
            logger.info("dropped %d rows with missing values from %s", dropped,
                        config.csv_path)
        split_rng = np.random.default_rng(_derived_seed(config.seed, _DOMAIN_SPLIT))
        order = split_rng.permutation(full.num_samples)
        n_test = max(1, int(round(config.test_fraction * full.num_samples)))
        if n_test >= full.num_samples:
            raise ConfigError("test_fraction leaves no training rows")
        test = full.subset(order[:n_test])
        train = full.subset(order[n_test:])
        model = LinearRegression(full.feature_dim)
    train, num_samples = dirichlet_partition(
        train, PartitionConfig(config.num_clients, config.dirichlet_alpha,
                               _derived_seed(config.seed, _DOMAIN_PARTITION)))
    budgets = sample_budgets(
        BudgetSamplingConfig((config.epsilon_min, config.epsilon_max),
                             (config.delta_min, config.delta_max),
                             _derived_seed(config.seed, _DOMAIN_BUDGETS)),
        config.num_clients)
    return FederatedProblem(model, train, num_samples, budgets, test)


def settings_from_config(config: ExperimentConfig) -> RunSettings:
    return RunSettings(
        mechanism=MechanismKind.parse(config.mechanism),
        clients_per_round=config.clients_per_round,
        total_rounds=config.total_rounds,
        estimation_rounds=config.estimation_rounds,
        clip_bound=config.clip_bound,
        loss_cap=config.resolved_loss_cap(),
        lr_initial=config.lr_initial,
        lr_decay_horizon=config.lr_decay_horizon,
        c2=config.c2,
        dp_enabled=not config.zero_noise,
        force_uniform_plan=config.force_uniform_plan)


def dispatch_run(algorithm: str, problem: FederatedProblem, settings: RunSettings,
                 seed: int, on_round=None) -> RunResult:
    if algorithm == "dpfl_bcs":
        return run_dpfl_bcs(problem, settings, seed, on_round=on_round)
    return run_baseline(algorithm, problem, settings, seed, on_round=on_round)


def run_single(config: ExperimentConfig, problem: FederatedProblem | None = None,
               on_round=None) -> RunResult:
    if problem is None:
        problem = build_problem(config)
    settings = settings_from_config(config)
    return dispatch_run(config.algorithm, problem, settings, config.seed,
                        on_round=on_round)


@dataclass
class ComparisonRow:
    algorithm: str
    mechanism: str
    mean_final_metric: float
    std_final_metric: float
    num_seeds: int


@dataclass
class ComparisonSummary:
    rows: list
    finals: dict
    seeds: list


def run_comparison(config: ExperimentConfig, algorithms, num_seeds: int,
                   out_dir=None) -> ComparisonSummary:
    """Paired multi-seed comparison: per seed, every algorithm sees the same
    partition, budgets, and initial weights, and draws each round's
    selection and noise from the same streams (common random numbers).
    Final metric is accuracy for classification, test loss (MSE) for
    regression.

    The seeds' problems are built in order, and consecutive seeds run in one
    lock-step batch (`engine.run_lockstep_seeds`) of at most `BATCH_SEEDS`
    seeds while their training rows add up to at most `BATCH_BYTES`, so a
    batch holds its seeds' problems and results at once; a seed with more
    rows runs alone. Every run still draws what it draws alone, and each
    history equals that of the algorithm run on its own. A
    batch writes its histories once all its runs are done: when a run fails,
    none of its batch's histories is written (earlier batches' are), and the
    StateError raised names the failing (seed, algorithm)."""
    algorithms = list(algorithms)
    if not algorithms:
        raise ConfigError("algorithm list is empty")
    repeated = sorted({alg for alg in algorithms if algorithms.count(alg) > 1})
    if repeated:
        raise ConfigError(f"algorithm list repeats {', '.join(map(repr, repeated))}; "
                          f"each algorithm is one row of the comparison")
    if num_seeds < 1:
        raise ConfigError("num_seeds must be >= 1")
    # each listed algorithm runs under this config, so each must be known and
    # accept it, whichever algorithm the config itself names
    for alg in algorithms:
        replace(config, algorithm=alg).validate()
    seeds = [config.seed + i for i in range(num_seeds)]
    classification = config.dataset == "synthetic_classification"
    finals = {alg: [] for alg in algorithms}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    # the seeds share the settings, which do not depend on the seed
    settings = settings_from_config(config)
    batch, batch_bytes = [], 0
    for i, seed in enumerate(seeds):
        problem = build_problem(replace(config, seed=seed))
        batch.append((seed, problem))
        seed_bytes = problem.train.features.nbytes + problem.train.targets.nbytes
        batch_bytes += seed_bytes
        # every seed of one config has as many training rows, so the batch
        # closes when one more seed would pass either cap
        if (i + 1 < num_seeds and len(batch) < BATCH_SEEDS
                and batch_bytes + seed_bytes <= BATCH_BYTES):
            continue
        batch_seeds, problems = (list(column) for column in zip(*batch))
        try:
            batch_results = run_lockstep_seeds(problems, batch_seeds, settings, algorithms)
        except Exception as exc:
            _name_failed_run(exc, algorithms, batch, settings)
        for seed_done, results in zip(batch_seeds, batch_results):
            for alg, result in zip(algorithms, results):
                if out_dir:
                    write_history(os.path.join(out_dir, f"history_{alg}_seed{seed_done}.jsonl"),
                                  result)
                finals[alg].append(result.final_test_accuracy if classification
                                   else result.final_test_loss)
        batch, batch_bytes = [], 0
    rows = []
    for alg in algorithms:
        values = np.asarray(finals[alg], dtype=float)
        std = float(np.std(values, ddof=1)) if num_seeds > 1 else 0.0
        rows.append(ComparisonRow(alg, config.mechanism, float(values.mean()), std,
                                  num_seeds))
    summary = ComparisonSummary(
        rows=rows, finals={a: np.asarray(v, dtype=float) for a, v in finals.items()},
        seeds=seeds)
    if out_dir:
        write_summary_csv(os.path.join(out_dir, "summary.csv"), rows)
    return summary


def _name_failed_run(exc: Exception, algorithms, batch: list, settings: RunSettings):
    """Raise a StateError naming the run whose failure ended the lock-step
    batch of (seed, problem) pairs `batch` with `exc`. A failure in a run's
    own step names its run (`failed_run`). One in the batch's shared client
    round names none, so the batch's seeds rerun in order, each algorithm
    alone, and the first to fail is named; a failure of no run alone names
    the batch's seeds and algorithms."""
    failed = getattr(exc, "failed_run", None)
    if failed is not None:
        seed, alg = failed
        raise StateError(f"algorithm {alg!r} failed at seed {seed}: {exc}") from exc
    for seed, problem in batch:
        for alg in algorithms:
            try:
                dispatch_run(alg, problem, settings, seed)
            except Exception as alone:
                raise StateError(f"algorithm {alg!r} failed at seed {seed}: "
                                 f"{alone}") from alone
    seeds = [seed for seed, _ in batch]
    raise StateError(f"algorithms {algorithms} failed together at seeds {seeds}: "
                     f"{exc}") from exc


def write_summary_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "mechanism", "mean_final_metric",
                         "std_final_metric", "num_seeds"])
        for row in rows:
            writer.writerow([row.algorithm, row.mechanism, repr(row.mean_final_metric),
                             repr(row.std_final_metric), row.num_seeds])


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# one encoder renders every history line: `json.dumps` with these options
# builds a new encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, default=_json_default)


def _write_line(fh, obj) -> None:
    """Write `obj` as one JSON line; the newline is a write of its own, so a
    long line is not copied to append it."""
    fh.write(_ENCODER.encode(obj))
    fh.write("\n")


def history_header(algorithm: str, settings: RunSettings, model, epsilon: np.ndarray,
                   delta: np.ndarray, num_samples: np.ndarray, seed: int) -> dict:
    """The header record; the three columns give each client's budget and
    sample count."""
    return {
        "kind": "header",
        "format_version": HISTORY_FORMAT_VERSION,
        "algorithm": algorithm,
        "mechanism": settings.mechanism.value,
        "num_clients": len(epsilon),
        "clients_per_round": settings.clients_per_round,
        "total_rounds": settings.total_rounds,
        "estimation_rounds": settings.estimation_rounds,
        "model_kind": ("logistic_regression" if model.is_classification
                       else "linear_regression"),
        "feature_dim": model.feature_dim,
        "num_classes": getattr(model, "num_classes", None),
        "model_dim": model.dim,
        "clip_bound": settings.clip_bound,
        "loss_cap": settings.loss_cap,
        "c2": settings.c2,
        "seed": int(seed),
        "clients": [
            {"client_id": i, "epsilon": eps, "delta": dlt, "num_samples": samples}
            for i, (eps, dlt, samples) in enumerate(zip(
                epsilon.tolist(), delta.tolist(), num_samples.tolist()))
        ],
    }


def round_to_json(record: RoundRecord) -> dict:
    obj = {
        "kind": "round",
        "t": record.t,
        "stage": record.stage,
        "selected": list(record.selected),
        "test_loss": record.test_loss,
        "test_accuracy": record.test_accuracy,
    }
    if record.losses is not None:
        # the encoder sorts the keys, as strings
        obj["losses"] = {str(n): [cur, upd] for n, (cur, upd) in record.losses.items()}
    return obj


def summary_to_json(result: RunResult) -> dict:
    clients = result.clients
    ids = [str(i) for i in range(len(clients.epsilon))]
    return {
        "kind": "summary",
        "final_test_loss": result.final_test_loss,
        "final_test_accuracy": result.final_test_accuracy,
        "plan_stage1": result.plan_stage1.to_dict(),
        "plan_stage2": result.plan_stage2.to_dict() if result.plan_stage2 else None,
        "estimated_params": (result.estimated_params.to_dict()
                             if result.estimated_params else None),
        "ended_early": result.ended_early,
        "budget": {
            "epsilon_consumed": dict(zip(ids, clients.epsilon_consumed.tolist())),
            "epsilon_remaining": dict(zip(ids, clients.epsilon_remaining.tolist())),
        },
    }


class HistoryWriter:
    """Streams one run to a line-delimited JSON file: header line first, one
    round object per line as rounds complete, one summary line at the end.
    Flushed per line so a crashed run leaves a readable partial history."""

    def __init__(self, path, header: dict):
        self._fh = open(path, "w")
        self._line(header)

    def _line(self, obj) -> None:
        _write_line(self._fh, obj)
        self._fh.flush()

    def write_round(self, record: RoundRecord) -> None:
        self._line(round_to_json(record))

    def write_summary(self, result: RunResult) -> None:
        self._line(summary_to_json(result))

    def close(self) -> None:
        self._fh.close()


def write_history(path, result: RunResult) -> None:
    """Write a finished run's history, the lines `HistoryWriter` streams, in
    one buffered pass with no per-line flush. Each line's object is dropped
    once written, so the header's per-client records are released before the
    summary's are built."""
    clients = result.clients
    with open(path, "w") as fh:
        _write_line(fh, history_header(result.algorithm, result.settings,
                                       result.final_state.model_kind, clients.epsilon,
                                       clients.delta, clients.num_samples, result.seed))
        for record in result.rounds:
            _write_line(fh, round_to_json(record))
        _write_line(fh, summary_to_json(result))


@dataclass
class ParsedHistory:
    header: dict
    rounds: list
    summary: dict | None


def read_history(path) -> ParsedHistory:
    try:
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read history file {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"history file {path} is empty")
    objs = []
    for i, line in enumerate(lines, start=1):
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{i}: invalid JSON: {exc}") from exc
        if not isinstance(objs[-1], dict):
            raise ConfigError(f"{path}:{i}: not a JSON object")
    header = objs[0]
    if header.get("kind") != "header":
        raise ConfigError(f"{path}: first line is not a history header")
    rounds = [o for o in objs[1:] if o.get("kind") == "round"]
    summaries = [o for o in objs[1:] if o.get("kind") == "summary"]
    return ParsedHistory(header, rounds, summaries[-1] if summaries else None)


def estimate_from_history(parsed: ParsedHistory) -> EstimatedParams:
    """Re-run the stage-one estimation offline from a stored history.

    Produces bit-identical estimates to the ones the run recorded, because it
    builds the same `StageOneLog.from_rounds` log and calls the same
    `fit_stage_one` the engine used at the re-planning round.
    Raises ConfigError on a header or stage-one round that is malformed.
    """
    h = parsed.header
    if not isinstance(h, dict):
        raise ConfigError(f"history header must be an object, got {h!r}")
    required = ("mechanism", "clients_per_round", "estimation_rounds", "num_clients",
                "model_dim", "clip_bound", "c2", "clients")
    missing = [key for key in required if key not in h]
    if missing:
        raise ConfigError(f"history header is missing fields: {', '.join(missing)}")
    mech = MechanismKind.parse(h["mechanism"])
    clients = h["clients"]
    if not (isinstance(clients, list) and all(isinstance(c, dict) for c in clients)):
        raise ConfigError(f"history header clients must be a list of objects, "
                          f"got {clients!r}")
    try:
        t0, k, num_clients, model_dim = (int(h[key]) for key in (
            "estimation_rounds", "clients_per_round", "num_clients", "model_dim"))
        clip_bound, c2 = float(h["clip_bound"]), float(h["c2"])
        epsilon = [float(c["epsilon"]) for c in clients]
        delta = [float(c["delta"]) for c in clients]
        num_samples = [int(c["num_samples"]) for c in clients]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("history header fields and each client's epsilon, delta and "
                          f"num_samples must be numbers: {type(exc).__name__}: {exc}"
                          ) from exc
    # phi_n is built in list order and gamma_hat_n by client id, so the two
    # agree only when the list holds ids 0..num_clients-1 in order
    ids = [c.get("client_id") for c in clients]
    if ids != list(range(num_clients)):
        raise ConfigError(
            f"history header lists {len(ids)} clients starting {ids[:5]}; expected ids "
            f"0..{num_clients - 1} in order, one per client of num_clients = {num_clients}")
    by_t = {}
    for r in parsed.rounds:
        t = r.get("t")
        if type(t) is not int:
            raise ConfigError(f"history round needs an integer t, got {t!r}")
        by_t[t] = r
    rounds = []
    for t in range(1, t0 + 1):
        r = by_t.get(t)
        if r is None:
            raise ConfigError(f"history is missing stage-one round {t}")
        if not r.get("losses"):
            raise ConfigError(f"history round {t} has no stage-one loss records")
        if not isinstance(r["losses"], dict):
            raise ConfigError(f"history round {t}: losses must be an object, "
                              f"got {r['losses']!r}")
        losses = {}
        for key, value in r["losses"].items():
            try:
                if not (isinstance(value, list) and len(value) == 2):
                    raise ValueError("not a pair")
                losses[int(key)] = float(value[0]), float(value[1])
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"history round {t}: losses must map client ids to "
                                  f"pairs of numbers, got {key!r}: {value!r}") from None
        rounds.append(losses)
    log = StageOneLog.from_rounds(rounds)
    lam, phi = compute_phi_lambda(mech, model_dim, clip_bound, c2, epsilon, delta,
                                  num_samples)
    return fit_stage_one(log, lam, phi, k, mech.noise_exponent)
