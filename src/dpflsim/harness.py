"""Experiment orchestration: build problems from configs, run paired
multi-seed comparisons, and persist line-delimited run histories."""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .data import (
    Dataset,
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
from .mechanisms import MechanismKind, _unchecked
from .models import LinearRegression, LogisticRegression
from .selection import EstimatedParams, SelectionPlan, StageOneLog, compute_phi_lambda

logger = logging.getLogger(__name__)

HISTORY_FORMAT_VERSION = 5

# Seed-derivation domains; selection and noise streams use 1 and 2 inside the
# engine, data-side streams start at 10.
_DOMAIN_DATA = 10
_DOMAIN_PARTITION = 11
_DOMAIN_BUDGETS = 12
_DOMAIN_SPLIT = 13

# `run_comparison` runs consecutive seeds in one lock-step batch while their
# training rows (features, targets and the row order) add up to at most this
# many bytes; a seed with more is a batch of its own. A batch holds its
# seeds' problems, a copy of their rows and orders and their runs' results at
# once. At feature_dim 5 a regression seed takes 56 bytes a row, 48 of them
# features and targets: batches of 10 seeds of 2,000 rows ran 1.2-1.3x as
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
    """Dataset, partition, budgets, and test split for one experiment seed.

    The rows are one read-only block, the training rows first and the test
    split after them, and `train` and `test_data` are views of it: synthetic
    rows as generated, CSV rows put in that order by one gather through a
    seeded shuffle. The partition copies no row: it gives the problem the
    row order through which client n owns the rows
    `rows[row_start[n]:row_start[n] + num_samples[n]]` of `train`."""
    config.validate()
    data_seed = _derived_seed(config.seed, _DOMAIN_DATA)
    if config.dataset != "csv":
        total = config.num_samples + config.test_samples
        if config.dataset == "synthetic_regression":
            full, _ = generate_synthetic_regression(
                total, config.feature_dim, config.target_noise_std, data_seed)
            model = LinearRegression(config.feature_dim)
        else:
            full = generate_synthetic_classification(
                total, config.num_classes, config.feature_dim, config.class_separation,
                data_seed)
            model = LogisticRegression(config.feature_dim, config.num_classes)
        n_train = config.num_samples
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
        # the shuffle's last rows train and its first n_test test
        full = full.subset(np.roll(order, -n_test))
        n_train = full.num_samples - n_test
        model = LinearRegression(full.feature_dim)
    full.features.flags.writeable = full.targets.flags.writeable = False
    # views of the checked `full`, so not checked again
    train, test = _unchecked(Dataset, [(full.features[:n_train], full.targets[:n_train]),
                                       (full.features[n_train:], full.targets[n_train:])])
    rows, num_samples = dirichlet_partition(
        train, config.num_clients, config.dirichlet_alpha,
        _derived_seed(config.seed, _DOMAIN_PARTITION))
    budgets = sample_budgets(
        config.num_clients, (config.epsilon_min, config.epsilon_max),
        (config.delta_min, config.delta_max), _derived_seed(config.seed, _DOMAIN_BUDGETS))
    return FederatedProblem(model, train, rows, num_samples, budgets, test)


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
    seeds while their training rows and row orders add up to at most
    `BATCH_BYTES`, so a batch holds its seeds' problems and results at once;
    a seed with more runs alone. Every run still draws what it draws alone,
    and each history equals that of the algorithm run on its own. A batch
    writes its histories once all its runs are done: when a run fails,
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
        seed_bytes = (problem.train.features.nbytes + problem.train.targets.nbytes
                      + problem.rows.nbytes)
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


# one encoder renders every history line's object: `json.dumps` with these
# options builds a new encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True)

# A string "\x00name" in an object stands for text rendered apart, as JSON,
# and `_render` puts that text in its place. The encoder writes the string as
# "\u0000name", which no other string of a history line is.
_HOLE = re.compile(r'"\\u0000(\w+)"')


def _hole(name: str) -> str:
    return "\x00" + name


def _render(obj, texts: dict) -> str:
    """The encoder's JSON text of `obj`, with each hole `_hole(name)` in it
    replaced by texts[name]."""
    parts = _HOLE.split(_ENCODER.encode(obj))
    parts[1::2] = [texts[name] for name in parts[1::2]]
    return "".join(parts)


def _write_text(fh, line: str) -> None:
    """Write one line of JSON text; the newline is a write of its own, so a
    long line is not copied to append it."""
    fh.write(line)
    fh.write("\n")


def _write_line(fh, obj) -> None:
    """Write `obj` as one JSON line, as `_write_text` writes its text."""
    fh.write(_ENCODER.encode(obj))
    fh.write("\n")


def _float_texts(**columns) -> dict:
    """Each float column's entries as lists of their JSON texts, spelled as
    `_ENCODER` spells them (`float.__repr__`, or NaN, Infinity, -Infinity).

    Each distinct float64 bit pattern is rendered once, over all the columns
    at once: a wide history's columns repeat few values (a plan's
    probabilities take a handful, a remaining budget often equals the
    header's epsilon), and rendering a float costs far more than looking its
    text up. Values are told apart by their bits, not by `==`, which would
    merge -0.0 with 0.0 and never match a NaN."""
    values = np.concatenate(list(columns.values()), dtype=np.float64)
    distinct, which = np.unique(values.view(np.int64), return_inverse=True)
    # the encoder renders the distinct values as one list; no float's text
    # holds the list's separator
    texts = _ENCODER.encode(distinct.view(np.float64).tolist())[1:-1].split(", ")
    texts = np.array(texts, dtype=object)[which].tolist()
    out, start = {}, 0
    for name, column in columns.items():
        out[name] = texts[start:start + len(column)]
        start += len(column)
    return out


@functools.lru_cache(maxsize=4)
def _client_ids(n: int) -> tuple:
    """(ids, order, keys) of an n-client history: the client ids as text, the
    ids in the order the encoder sorts a budget object's keys ("0", "1",
    "10", ...), and their texts in that order."""
    ids = tuple(map(str, range(n)))
    order = tuple(sorted(range(n), key=ids.__getitem__))
    return ids, order, tuple(ids[i] for i in order)


def _join_rows(n: int, *pieces) -> str:
    """Join n rows with ", ", row i being the i-th entry of each sequence
    piece and each str piece itself, in the order given."""
    parts = [", "] * ((len(pieces) + 1) * n)
    for k, piece in enumerate(pieces):
        parts[k::len(pieces) + 1] = [piece] * n if isinstance(piece, str) else piece
    return "".join(parts[:-1])


def _client_list(epsilon: list, delta: list, num_samples: np.ndarray) -> str:
    """The header's client list from the epsilon and delta columns' texts."""
    n = len(epsilon)
    return "[" + _join_rows(n, '{"client_id": ', _client_ids(n)[0], ', "delta": ', delta,
                            ', "epsilon": ', epsilon, ', "num_samples": ',
                            list(map(str, num_samples.tolist())), "}") + "]"


def _budget_object(texts: list) -> str:
    """A budget object, client id to value, from one column's texts."""
    n = len(texts)
    _, order, keys = _client_ids(n)
    return "{" + _join_rows(n, '"', keys, '": ', list(map(texts.__getitem__, order))) + "}"


def _array(texts: list) -> str:
    return "[" + ", ".join(texts) + "]"


def history_header(algorithm: str, settings: RunSettings, model, epsilon: np.ndarray,
                   delta: np.ndarray, num_samples: np.ndarray, seed: int,
                   texts: dict | None = None) -> str:
    """The header line: the run's settings, and a client list whose entries
    give each client's budget and sample count. `texts` holds the epsilon
    and delta columns' texts (`_float_texts`) when the caller has rendered
    them already."""
    if texts is None:
        texts = _float_texts(epsilon=epsilon, delta=delta)
    return _render({
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
        "clients": _hole("clients"),
    }, {"clients": _client_list(texts["epsilon"], texts["delta"], num_samples)})


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


# the summary's float columns written as arrays, where the run has them
_ARRAY_COLUMNS = ("plan_stage1", "plan_stage2", "gamma_hat_n", "phi_n")


def _summary_columns(result: RunResult) -> dict:
    """The summary's float columns, by name."""
    columns = {"epsilon_consumed": result.clients.epsilon_consumed,
               "epsilon_remaining": result.clients.epsilon_remaining,
               "plan_stage1": result.plan_stage1.probabilities}
    if result.plan_stage2 is not None:
        columns["plan_stage2"] = result.plan_stage2.probabilities
    if result.estimated_params is not None:
        columns["gamma_hat_n"] = result.estimated_params.gamma_hat_n
        columns["phi_n"] = result.estimated_params.phi_n
    return columns


def _plan(plan: SelectionPlan | None, name: str) -> dict | None:
    """A plan's record, its probabilities the hole `name`."""
    if plan is None:
        return None
    return {"counts": plan.counts.tolist(), "probabilities": _hole(name),
            "horizon_rounds": int(plan.horizon_rounds),
            "per_round_selected": int(plan.per_round_selected)}


def summary_line(result: RunResult, texts: dict | None = None) -> str:
    """The summary line: final metrics, both plans, the estimated parameters
    and each client's epsilon consumed and remaining. `texts` holds the
    summary's float columns' texts (`_float_texts` of `_summary_columns`)
    when the caller has rendered them already."""
    if texts is None:
        texts = _float_texts(**_summary_columns(result))
    params = result.estimated_params
    columns = {name: _budget_object(texts[name])
               for name in ("epsilon_consumed", "epsilon_remaining")}
    columns.update((name, _array(texts[name])) for name in _ARRAY_COLUMNS if name in texts)
    return _render({
        "kind": "summary",
        "final_test_loss": result.final_test_loss,
        "final_test_accuracy": result.final_test_accuracy,
        "plan_stage1": _plan(result.plan_stage1, "plan_stage1"),
        "plan_stage2": _plan(result.plan_stage2, "plan_stage2"),
        "estimated_params": (None if params is None else {
            **params.to_dict(), "gamma_hat_n": _hole("gamma_hat_n"),
            "phi_n": _hole("phi_n")}),
        "ended_early": result.ended_early,
        "budget": {"epsilon_consumed": _hole("epsilon_consumed"),
                   "epsilon_remaining": _hole("epsilon_remaining")},
    }, columns)


class HistoryWriter:
    """Streams one run to a line-delimited JSON file: the header line
    (`history_header`) first, one round object per line as rounds complete,
    one summary line at the end. Flushed per line so a crashed run leaves a
    readable partial history."""

    def __init__(self, path, header: str):
        self._fh = open(path, "w")
        self._line(header)

    def _line(self, line: str) -> None:
        _write_text(self._fh, line)
        self._fh.flush()

    def write_round(self, record: RoundRecord) -> None:
        self._line(_ENCODER.encode(round_to_json(record)))

    def write_summary(self, result: RunResult) -> None:
        self._line(summary_line(result))

    def close(self) -> None:
        self._fh.close()


def write_history(path, result: RunResult) -> None:
    """Write a finished run's history, the lines `HistoryWriter` streams, in
    one buffered pass with no per-line flush. The header's and the summary's
    float columns are rendered together, so a value both lines hold is
    rendered once."""
    clients = result.clients
    texts = _float_texts(epsilon=clients.epsilon, delta=clients.delta,
                         **_summary_columns(result))
    with open(path, "w") as fh:
        _write_text(fh, history_header(result.algorithm, result.settings,
                                       result.final_state.model_kind, clients.epsilon,
                                       clients.delta, clients.num_samples, result.seed,
                                       texts))
        for record in result.rounds:
            _write_line(fh, round_to_json(record))
        _write_text(fh, summary_line(result, texts))


@dataclass
class ParsedHistory:
    header: dict
    rounds: list
    summary: dict | None


def read_history(path) -> ParsedHistory:
    """Parse one history file. Raises ConfigError on a file that is not one
    run's history, naming `path:line` where a line breaks it: a line that is
    not a JSON object, a first line that is no header, or what a
    concatenation of histories holds, a second header or summary, a round
    after the summary, or a second round with one `t`."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read history file {path}: {exc}") from exc
    header, rounds, summary = None, [], None
    # line numbers of the summary and of each integer t's round
    summary_at, round_at = None, {}
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{i}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}:{i}: not a JSON object")
        kind = obj.get("kind")
        if header is None:
            if kind != "header":
                raise ConfigError(f"{path}: first line is not a history header")
            header = obj
        elif kind == "header":
            raise ConfigError(f"{path}:{i}: a second header line; a history holds one run")
        elif kind == "summary":
            if summary is not None:
                raise ConfigError(f"{path}:{i}: a second summary line, after the one at "
                                  f"line {summary_at}; a history holds one run")
            summary, summary_at = obj, i
        elif kind == "round":
            if summary is not None:
                raise ConfigError(f"{path}:{i}: a round line after the summary at line "
                                  f"{summary_at}")
            t = obj.get("t")
            if type(t) is int:
                if t in round_at:
                    raise ConfigError(f"{path}:{i}: a second round t = {t}, after the one "
                                      f"at line {round_at[t]}")
                round_at[t] = i
            rounds.append(obj)
    if header is None:
        raise ConfigError(f"history file {path} is empty")
    return ParsedHistory(header, rounds, summary)


def estimate_from_history(parsed: ParsedHistory) -> EstimatedParams:
    """Re-run the stage-one estimation offline from a stored history.

    Produces bit-identical estimates to the ones the run recorded, because it
    builds the same `StageOneLog.from_rounds` log and calls the same
    `fit_stage_one` the engine used at the re-planning round.
    Raises ConfigError, naming the field or the round and client, on a
    header or stage-one round that is malformed or that no run writes: T0 < 2,
    K < 1, no clients, a loss report of an id outside 0..num_clients-1 or a
    loss that is not finite. The fit checks none of these facts again.
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
    if not clients:
        raise ConfigError("history header clients list is empty")
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
    if t0 < 2:
        raise ConfigError(f"history header estimation_rounds must be >= 2 for the "
                          f"stage-one fit, got {t0}")
    if k < 1:
        raise ConfigError(f"history header clients_per_round must be >= 1, got {k}")
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
                n, pair = int(key), (float(value[0]), float(value[1]))
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"history round {t}: losses must map client ids to "
                                  f"pairs of numbers, got {key!r}: {value!r}") from None
            if not 0 <= n < num_clients:
                raise ConfigError(f"history round {t}: client id {n} lies outside "
                                  f"0..{num_clients - 1}")
            if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
                raise ConfigError(f"history round {t}: client {n}'s losses must be "
                                  f"finite, got {value!r}")
            losses[n] = pair
        rounds.append(losses)
    log = StageOneLog.from_rounds(rounds)
    # an epsilon whose square underflows gives Phi_n = inf, which the fit
    # refuses, naming the client
    with np.errstate(divide="ignore"):
        lam, phi = compute_phi_lambda(mech, model_dim, clip_bound, c2, epsilon, delta,
                                      num_samples)
    return fit_stage_one(log, lam, phi, k, mech.noise_exponent)
