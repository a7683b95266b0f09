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
            _name_failing_run(exc, algorithms, batch, settings)
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
        # the summary of values / 2**e scaled back by 2**e, with 2**e past the
        # largest |final|: exact, and the std's squares cannot overflow
        e = math.frexp(float(np.abs(values).max()))[1]
        scaled = np.ldexp(values, -e)
        std = float(np.ldexp(np.std(scaled, ddof=1), e)) if num_seeds > 1 else 0.0
        rows.append(ComparisonRow(alg, config.mechanism, float(np.ldexp(scaled.mean(), e)),
                                  std, num_seeds))
    summary = ComparisonSummary(
        rows=rows, finals={a: np.asarray(v, dtype=float) for a, v in finals.items()},
        seeds=seeds)
    if out_dir:
        write_summary_csv(os.path.join(out_dir, "summary.csv"), rows)
    return summary


def _name_failing_run(exc: Exception, algorithms, batch: list, settings: RunSettings):
    """Raise a StateError naming a failed run of the lock-step batch of
    (seed, problem) pairs `batch`, which ended with `exc`. A run alone is
    byte-identical to its run in the batch, so the batch's runs rerun one by
    one, seeds in order and each seed's algorithms in the order of
    `algorithms`, and the first to fail alone is named with its own error;
    a failure of no run alone names the batch's seeds and algorithms."""
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
# and `_write_line` puts that text in its place. The encoder writes the
# string as "\u0000name", which no other string of a history line is.
_HOLE = re.compile(r'"\\u0000(\w+)"')

# A history's per-client parts (the header's client list, the summary's
# budget objects and arrays) are rendered and written this many clients at a
# time, so that no line of a wide run is held whole. A smaller chunk renders
# more often a value that many clients share (a plan's probability, a zero
# spent budget). At N = 10,000 (2 vCPUs, numpy 2.4.6) a chunked write took
# as long as one of whole lines, 45-47 ms against 44-46 ms (best of 60), and
# raised the process's peak RSS 1.8-2.1 MB above what the run left, against
# 4.2-5.6 MB.
CHUNK = 1024

# the summary's budget objects, client id to value; its other float columns
# are arrays
_BUDGET_COLUMNS = ("epsilon_consumed", "epsilon_remaining")


def _hole(name: str) -> str:
    return "\x00" + name


def _write_line(fh, obj, pieces: dict) -> None:
    """Write the encoder's JSON text of `obj` and a newline, each hole
    `_hole(name)` in it replaced by the text pieces that pieces[name], an
    iterable of str, yields. Each piece is written as soon as it is made, so
    a long line is never held whole."""
    parts = _HOLE.split(_ENCODER.encode(obj))
    for i, part in enumerate(parts):
        if i % 2:
            for piece in pieces[part]:
                fh.write(piece)
        else:
            fh.write(part)
    fh.write("\n")


def _write_text(fh, line: str) -> None:
    """Write one line of JSON text; the newline is a write of its own, so a
    long line is not copied to append it."""
    fh.write(line)
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


def _chunk_texts(columns: dict, kept: dict):
    """Render `columns`, float columns of one length by name, CHUNK entries
    at a time, one `_float_texts` call per chunk, and yield each chunk's
    start and texts. The texts of the columns named in `kept` are kept as
    they go by: a budget column's (`_BUDGET_COLUMNS`) into kept[name], one
    list indexed by client id, since a budget object takes its entries in
    key order across chunks; any other column's as one ", "-joined text per
    chunk, the pieces of an array."""
    n = len(next(iter(columns.values())))
    for lo in range(0, n, CHUNK):
        texts = _float_texts(**{name: column[lo:lo + CHUNK]
                                for name, column in columns.items()})
        for name, into in kept.items():
            if name in _BUDGET_COLUMNS:
                into.extend(texts[name])
            else:
                into.append(", ".join(texts[name]))
        yield lo, texts


def _kept_texts(columns: dict) -> dict:
    """What `_chunk_texts` keeps of every column of `columns`."""
    kept = {name: [] for name in columns}
    for _ in _chunk_texts(columns, kept):
        pass
    return kept


def _join_rows(n: int, *pieces) -> str:
    """Join n rows with ", ", row i being the i-th entry of each sequence
    piece and each str piece itself, in the order given."""
    parts = [", "] * ((len(pieces) + 1) * n)
    for k, piece in enumerate(pieces):
        parts[k::len(pieces) + 1] = [piece] * n if isinstance(piece, str) else piece
    return "".join(parts[:-1])


def _client_list(chunks, num_samples: np.ndarray):
    """The header's client list as text pieces, one per chunk of `chunks`
    (`_chunk_texts` of columns that hold epsilon and delta)."""
    yield "["
    for lo, texts in chunks:
        n = len(texts["epsilon"])
        if lo:
            yield ", "
        yield _join_rows(n, '{"client_id": ', list(map(str, range(lo, lo + n))),
                         ', "delta": ', texts["delta"], ', "epsilon": ', texts["epsilon"],
                         ', "num_samples": ', list(map(str, num_samples[lo:lo + n].tolist())),
                         "}")
    yield "]"


@functools.lru_cache(maxsize=4)
def _key_order(n: int) -> np.ndarray:
    """The client ids 0..n-1 in the order the encoder sorts a budget
    object's keys: "0", "1", "10", ..."""
    order = np.fromiter(sorted(range(n), key=str), dtype=np.intp, count=n)
    order.flags.writeable = False
    return order


def _budget_object(texts: list):
    """A budget object, client id to value, as text pieces of CHUNK entries
    in key order, from one column's texts indexed by client id."""
    order = _key_order(len(texts))
    yield "{"
    for lo in range(0, len(texts), CHUNK):
        ids = order[lo:lo + CHUNK].tolist()
        if lo:
            yield ", "
        yield _join_rows(len(ids), '"', list(map(str, ids)), '": ',
                         list(map(texts.__getitem__, ids)))
    yield "}"


def _array(chunks: list):
    """An array as text pieces, from its chunks' joined texts."""
    yield "["
    for i, chunk in enumerate(chunks):
        if i:
            yield ", "
        yield chunk
    yield "]"


def _write_header(fh, algorithm: str, settings: RunSettings, model, epsilon: np.ndarray,
                  delta: np.ndarray, num_samples: np.ndarray, seed: int,
                  summary: dict | None = None) -> dict:
    """Write the header line: the run's settings, and a client list whose
    entries give each client's budget and sample count. With `summary`, the
    summary's float columns (`_summary_columns`), render those in the same
    chunks as epsilon and delta, so a value the two lines share is rendered
    once, and return what `_chunk_texts` keeps of them."""
    summary = summary or {}
    kept = {name: [] for name in summary}
    chunks = _chunk_texts({"epsilon": epsilon, "delta": delta, **summary}, kept)
    _write_line(fh, {
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
    }, {"clients": _client_list(chunks, num_samples)})
    return kept


def _float_text(x: float) -> str:
    """A float spelled as `_ENCODER` spells it."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def round_line(record: RoundRecord) -> str:
    """A round's history line: the text `_ENCODER` gives for the round's
    object, built directly. The keys come in sorted order, the loss map's
    keys sorted as strings ("10" before "2"); ints are spelled by `str` and
    floats by `_float_text`."""
    t, stage, selected, losses, test_loss, test_accuracy = record
    if losses is None:
        reports = ""
    else:
        # the string keys are distinct, so no pair is compared
        reports = '"losses": {' + ", ".join(
            f'"{key}": [{_float_text(cur)}, {_float_text(upd)}]'
            for key, (cur, upd) in sorted(zip(map(str, losses), losses.values()))) + "}, "
    accuracy = "null" if test_accuracy is None else _float_text(test_accuracy)
    return (f'{{"kind": "round", {reports}"selected": [{", ".join(map(str, selected))}], '
            f'"stage": {stage}, "t": {t}, "test_accuracy": {accuracy}, '
            f'"test_loss": {_float_text(test_loss)}}}')


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


def _write_summary(fh, result: RunResult, kept: dict) -> None:
    """Write the summary line: final metrics, both plans, the estimated
    parameters and each client's epsilon consumed and remaining, from what
    `_chunk_texts` kept of the summary's float columns."""
    params = result.estimated_params
    _write_line(fh, {
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
    }, {name: (_budget_object if name in _BUDGET_COLUMNS else _array)(texts)
        for name, texts in kept.items()})


class HistoryWriter:
    """Streams one run of `problem` to a line-delimited JSON file: the header
    line first, one round object per line as rounds complete, one summary
    line at the end. Flushed per line so a crashed run leaves a readable
    partial history."""

    def __init__(self, path, algorithm: str, settings: RunSettings,
                 problem: FederatedProblem, seed: int):
        self._fh = open(path, "w")
        _write_header(self._fh, algorithm, settings, problem.model, problem.budgets.epsilon,
                      problem.budgets.delta, problem.num_samples, seed)
        self._fh.flush()

    def write_round(self, record: RoundRecord) -> None:
        _write_text(self._fh, round_line(record))
        self._fh.flush()

    def write_summary(self, result: RunResult) -> None:
        _write_summary(self._fh, result, _kept_texts(_summary_columns(result)))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def write_history(path, result: RunResult) -> None:
    """Write a finished run's history, the lines `HistoryWriter` streams, in
    one buffered pass with no per-line flush. The header's chunks of clients
    render the summary's float columns too, so a value both lines hold is
    rendered once, and keep their texts for the summary (see
    `_chunk_texts`)."""
    clients = result.clients
    with open(path, "w") as fh:
        kept = _write_header(fh, result.algorithm, result.settings,
                             result.final_state.model_kind, clients.epsilon, clients.delta,
                             clients.num_samples, result.seed, _summary_columns(result))
        for record in result.rounds:
            _write_text(fh, round_line(record))
        _write_summary(fh, result, kept)


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
    K < 1, no clients, a loss report of an id outside 0..num_clients-1, two
    reports of one id in a round ("3" and "03") or a loss that is not finite.
    The fit checks none of these facts again.
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
            if n in losses:
                raise ConfigError(f"history round {t}: client id {n} has two loss "
                                  f"entries, the second under key {key!r}")
            losses[n] = pair
        rounds.append(losses)
    log = StageOneLog.from_rounds(rounds)
    # an epsilon whose square underflows gives Phi_n = inf, which the fit
    # refuses, naming the client
    with np.errstate(divide="ignore"):
        lam, phi = compute_phi_lambda(mech, model_dim, clip_bound, c2, epsilon, delta,
                                      num_samples)
    return fit_stage_one(log, lam, phi, k, mech.noise_exponent)
