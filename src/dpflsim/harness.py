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
    ALGORITHMS,
    FederatedProblem,
    LearningRateSchedule,
    RoundRecord,
    RunResult,
    RunSettings,
    run_baseline,
    run_dpfl_bcs,
)
from .errors import ConfigError, StateError
from .mechanisms import MechanismKind
from .models import LinearRegression, LogisticRegression
from .selection import (
    ClientMeta,
    EstimatedParams,
    StageOneLog,
    compute_phi_lambda,
    estimate_gamma_n,
    estimate_problem_params,
    estimate_rho_min,
    observed_stage_loss,
)

logger = logging.getLogger(__name__)

HISTORY_FORMAT_VERSION = 5

# Seed-derivation domains; selection and noise streams use 1 and 2 inside the
# engine, data-side streams start at 10.
_DOMAIN_DATA = 10
_DOMAIN_PARTITION = 11
_DOMAIN_BUDGETS = 12
_DOMAIN_SPLIT = 13


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
    clients = dirichlet_partition(
        train, PartitionConfig(config.num_clients, config.dirichlet_alpha,
                               _derived_seed(config.seed, _DOMAIN_PARTITION)))
    budgets = sample_budgets(
        BudgetSamplingConfig((config.epsilon_min, config.epsilon_max),
                             (config.delta_min, config.delta_max),
                             _derived_seed(config.seed, _DOMAIN_BUDGETS)),
        config.num_clients)
    return FederatedProblem(model, clients, budgets, test)


def settings_from_config(config: ExperimentConfig) -> RunSettings:
    schedule = LearningRateSchedule(
        kind=config.lr_kind, eta0=config.lr_initial,
        decay_horizon=config.lr_decay_horizon, mu=config.lr_mu, gamma=config.lr_gamma)
    return RunSettings(
        mechanism=MechanismKind.parse(config.mechanism),
        clients_per_round=config.clients_per_round,
        total_rounds=config.total_rounds,
        estimation_rounds=config.estimation_rounds,
        clip_bound=config.clip_bound,
        loss_cap=config.resolved_loss_cap(),
        schedule=schedule,
        c2=config.c2,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        aggregate_by_count=config.aggregate_by_count,
        dp_enabled=not config.zero_noise,
        force_uniform_plan=config.force_uniform_plan,
        winsorize_percentile=config.winsorize_percentile)


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
    curves: dict
    seeds: list
    metric_name: str


def run_comparison(config: ExperimentConfig, algorithms, num_seeds: int,
                   out_dir=None) -> ComparisonSummary:
    """Paired multi-seed comparison: per seed, every algorithm sees the same
    partition, budgets, and initial weights. Final metric is accuracy for
    classification, test loss (MSE) for regression."""
    algorithms = list(algorithms)
    if not algorithms:
        raise ConfigError("algorithm list is empty")
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {alg!r}; expected one of {ALGORITHMS}")
    if num_seeds < 1:
        raise ConfigError("num_seeds must be >= 1")
    config.validate()
    seeds = [config.seed + i for i in range(num_seeds)]
    classification = config.dataset == "synthetic_classification"
    metric_name = "accuracy" if classification else "mse"
    finals = {alg: [] for alg in algorithms}
    curves = {alg: [] for alg in algorithms}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for seed in seeds:
        cfg_seed = replace(config, seed=seed)
        problem = build_problem(cfg_seed)
        settings = settings_from_config(cfg_seed)
        for alg in algorithms:
            try:
                result = dispatch_run(alg, problem, settings, seed)
            except Exception as exc:
                raise StateError(
                    f"algorithm {alg!r} failed at seed {seed}: {exc}") from exc
            if out_dir:
                write_history(os.path.join(out_dir, f"history_{alg}_seed{seed}.jsonl"),
                              result)
            if classification:
                finals[alg].append(result.final_test_accuracy)
                curve = [r.test_accuracy for r in result.rounds]
            else:
                finals[alg].append(result.final_test_loss)
                curve = [r.test_loss for r in result.rounds]
            # Early-ended runs pad with their final value to keep curves rectangular.
            while len(curve) < settings.total_rounds:
                curve.append(curve[-1] if curve else float("nan"))
            curves[alg].append(curve)
    rows = []
    for alg in algorithms:
        values = np.asarray(finals[alg], dtype=float)
        std = float(np.std(values, ddof=1)) if num_seeds > 1 else 0.0
        rows.append(ComparisonRow(alg, config.mechanism, float(values.mean()), std,
                                  num_seeds))
    summary = ComparisonSummary(
        rows=rows, finals={a: np.asarray(v, dtype=float) for a, v in finals.items()},
        curves={a: np.asarray(v, dtype=float) for a, v in curves.items()},
        seeds=seeds, metric_name=metric_name)
    if out_dir:
        write_summary_csv(os.path.join(out_dir, "summary.csv"), rows)
    return summary


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


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_json_default)


def history_header(algorithm: str, settings: RunSettings, model, metas,
                   seed: int) -> dict:
    return {
        "kind": "header",
        "format_version": HISTORY_FORMAT_VERSION,
        "algorithm": algorithm,
        "mechanism": settings.mechanism.value,
        "num_clients": len(metas),
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
            {"client_id": m.client_id, "epsilon": m.epsilon, "delta": m.delta,
             "num_samples": m.num_samples} for m in metas
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
        obj["losses"] = {str(n): [cur, upd] for n, (cur, upd) in sorted(record.losses.items())}
    return obj


def summary_to_json(result: RunResult) -> dict:
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
            "epsilon_consumed": {str(e.client_id): e.epsilon_consumed
                                 for e in result.ledger},
            "epsilon_remaining": {str(e.client_id): e.epsilon_remaining
                                  for e in result.ledger},
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
        self._fh.write(_dump(obj) + "\n")
        self._fh.flush()

    def write_round(self, record: RoundRecord) -> None:
        self._line(round_to_json(record))

    def write_summary(self, result: RunResult) -> None:
        self._line(summary_to_json(result))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_history(path, result: RunResult) -> None:
    header = history_header(result.algorithm, result.settings,
                            result.final_state.model_kind, result.metas, result.seed)
    with HistoryWriter(path, header) as writer:
        for record in result.rounds:
            writer.write_round(record)
        writer.write_summary(result)


@dataclass
class ParsedHistory:
    header: dict
    rounds: list
    summary: dict | None


def read_history(path) -> ParsedHistory:
    try:
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read history file {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"history file {path} is empty")
    objs = []
    for i, line in enumerate(lines, start=1):
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{i}: invalid JSON: {exc}") from exc
    header = objs[0]
    if header.get("kind") != "header":
        raise ConfigError(f"{path}: first line is not a history header")
    rounds = [o for o in objs[1:] if o.get("kind") == "round"]
    summaries = [o for o in objs[1:] if o.get("kind") == "summary"]
    return ParsedHistory(header, rounds, summaries[-1] if summaries else None)


def estimate_from_history(parsed: ParsedHistory) -> EstimatedParams:
    """Re-run the stage-one estimation pipeline offline from a stored history.

    Produces bit-identical estimates to the ones the run recorded, because it
    feeds the same helper chain the engine used at the re-planning round.
    """
    h = parsed.header
    required = ("mechanism", "clients_per_round", "estimation_rounds", "num_clients",
                "model_dim", "clip_bound", "c2", "clients")
    missing = [key for key in required if key not in h]
    if missing:
        raise ConfigError(f"history header is missing fields: {', '.join(missing)}")
    mech = MechanismKind.parse(h["mechanism"])
    t0 = int(h["estimation_rounds"])
    k = int(h["clients_per_round"])
    num_clients = int(h["num_clients"])
    # phi_n is built in list order and gamma_hat_n by client id, so the two
    # agree only when the list holds ids 0..num_clients-1 in order
    ids = [c.get("client_id") for c in h["clients"]]
    if ids != list(range(num_clients)):
        raise ConfigError(
            f"history header lists {len(ids)} clients starting {ids[:5]}; expected ids "
            f"0..{num_clients - 1} in order, one per client of num_clients = {num_clients}")
    by_t = {int(r["t"]): r for r in parsed.rounds}
    selected, current, updated = [], [], []
    for t in range(1, t0 + 1):
        r = by_t.get(t)
        if r is None:
            raise ConfigError(f"history is missing stage-one round {t}")
        if not r.get("losses"):
            raise ConfigError(f"history round {t} has no stage-one loss records")
        losses = {int(n): v for n, v in r["losses"].items()}
        selected.append(tuple(sorted(losses)))
        current.append({n: float(v[0]) for n, v in losses.items()})
        updated.append({n: float(v[1]) for n, v in losses.items()})
    log = StageOneLog(tuple(selected), tuple(current), tuple(updated))
    metas = [ClientMeta(int(c["client_id"]), float(c["epsilon"]), float(c["delta"]),
                        int(c["num_samples"])) for c in h["clients"]]
    lam, phi = compute_phi_lambda(mech, int(h["model_dim"]), float(h["clip_bound"]),
                                  float(h["c2"]), metas)
    gamma_hat = estimate_gamma_n(log, num_clients)
    rho_hat = estimate_rho_min(log, k, t0)
    observed = observed_stage_loss(log, t0)
    return estimate_problem_params(observed, log, lam, phi, gamma_hat, rho_hat, k,
                                   mech.noise_exponent)
