"""Seeded end-to-end benchmark of dpflsim with an optional per-layer trace.

Each workload is one user operation driven through the package's public
entry points (``build_problem``, ``run_single``, ``run_comparison``,
``write_history``, ``read_history``, ``estimate_from_history``). A run repeats
the operation for a fixed number of seconds, checks every repetition's
outputs, and reports medians. ``run.py`` is the command-line entry point;
``README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dpflsim

ROOT = Path(__file__).resolve().parent.parent
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

# A run always measures at least this many repetitions after the warm-up,
# so that a median exists even when one repetition outlasts --seconds.
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0
# Tolerances of the ledger invariants (acceptance criterion 7).
LEDGER_TOL = 1e-9
EXHAUSTION_FLOOR_REL = 1e-9
EXHAUSTION_FLOOR_ABS = 1e-15

# The host's speed drifts by up to 2x over 10-30 s as other tenants come and
# go, so a raw 30-second median mostly measures the neighbours. Every
# repetition is therefore bracketed by a reference kernel: a fixed mix of
# interpreter work and small numpy calls, like the simulator's round path,
# sharing no code with dpflsim, so program changes do not move it. Gated times
# are in reference seconds: wall seconds scaled to the speed at which the
# kernel takes REFERENCE_S. Raw wall-clock figures are printed beside them.
REFERENCE_BLOCKS = 5
REFERENCE_BLOCK_ITERS = 400
REFERENCE_S = 0.025


def reference_kernel_s() -> float:
    """Wall seconds of the reference kernel at the host's current speed.

    The kernel runs in blocks and the median block time stands for all of
    them, so a hiccup of a few milliseconds does not rescale a repetition.
    """
    features = np.random.default_rng(0).standard_normal((20, 6))
    weights = np.zeros(6)
    records, blocks = [], []
    for _ in range(REFERENCE_BLOCKS):
        start = time.perf_counter()
        for i in range(REFERENCE_BLOCK_ITERS):
            grads = features * (features @ weights - 1.0)[:, None]
            norms = np.sqrt((grads * grads).sum(axis=1))
            weights = weights - 0.001 * grads.mean(axis=0)
            records.append({"t": i, "norm": float(norms.max())})
        blocks.append(time.perf_counter() - start)
    return REFERENCE_BLOCKS * statistics.median(blocks)


PAIRED_ALGORITHMS = ("dpfl_bcs", "uniform_dp", "weiavg")
# Criterion 8's reference config from tests/test_acceptance.py.
PAIRED_REF_CONFIG = dict(num_clients=20, clients_per_round=5, total_rounds=60,
                         estimation_rounds=5, mechanism="gaussian",
                         epsilon_min=0.5, epsilon_max=5.0, dirichlet_alpha=3.0,
                         dataset="synthetic_regression", num_samples=200,
                         lr_initial=0.1, lr_decay_horizon=60.0, loss_cap=1.0, c2=2.0)


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Outputs:
    """What one repetition of a workload produced."""

    histories: list
    results: list = field(default_factory=list)
    replays: dict = field(default_factory=dict)
    final_metric: dict = field(default_factory=dict)


def _single_run(cfg, workdir: Path) -> Outputs:
    problem = dpflsim.build_problem(cfg)
    result = dpflsim.run_single(cfg, problem=problem)
    path = workdir / "history.jsonl"
    dpflsim.write_history(path, result)
    metric = result.final_test_accuracy if problem.model.is_classification \
        else result.final_test_loss
    return Outputs([path], [result], {}, {cfg.algorithm: metric})


def _paired_run(cfg, workdir: Path, num_seeds: int) -> Outputs:
    summary = dpflsim.run_comparison(cfg, PAIRED_ALGORITHMS, num_seeds,
                                     out_dir=str(workdir))
    replays = {}
    for path in sorted(workdir.glob("history_dpfl_bcs_seed*.jsonl")):
        parsed = dpflsim.read_history(path)
        replays[path.name] = dpflsim.estimate_from_history(parsed).to_dict()
    finals = {row.algorithm: row.mean_final_metric for row in summary.rows}
    return Outputs(sorted(workdir.glob("history_*.jsonl")), [], replays, finals)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: dict
    smoke: dict
    num_seeds: int = 1
    smoke_num_seeds: int = 1

    def config(self, seed: int, smoke: bool):
        return dpflsim.ExperimentConfig(**(self.smoke if smoke else self.full), seed=seed)

    def seeds(self, smoke: bool) -> int:
        return self.smoke_num_seeds if smoke else self.num_seeds

    def operation(self, cfg, workdir: Path, smoke: bool) -> Outputs:
        if self.num_seeds > 1:
            return _paired_run(cfg, workdir, self.seeds(smoke))
        return _single_run(cfg, workdir)


_ROUNDS_M = dict(algorithm="uniform_dp", mechanism="gaussian",
                 dataset="synthetic_classification", num_classes=10, feature_dim=5,
                 num_clients=1000, clients_per_round=100, total_rounds=200,
                 num_samples=20000)
_WIDE_BCS = dict(algorithm="dpfl_bcs", mechanism="gaussian",
                 dataset="synthetic_regression", num_clients=10000,
                 clients_per_round=50, total_rounds=60, estimation_rounds=10,
                 num_samples=200000)

WORKLOADS = {w.name: w for w in (
    Workload(
        "rounds-M",
        "per-client round path (~95% of time): client_round, clip/noise/accounting, "
        "logistic gradient, sample_selection at K*N=1e5; no replan",
        _ROUNDS_M,
        {**_ROUNDS_M, "num_clients": 50, "clients_per_round": 10, "total_rounds": 20,
         "num_samples": 1000}),
    Workload(
        "wide-bcs",
        "N=10,000 set-up, history write, O(N) scans and a replan dominate; the "
        "per-client round path is under 15%",
        _WIDE_BCS,
        {**_WIDE_BCS, "num_clients": 200, "clients_per_round": 10, "total_rounds": 20,
         "estimation_rounds": 5, "num_samples": 4000}),
    Workload(
        "paired-ref",
        "headline use: 3 algorithms x 10 seeds on the reference config, with history "
        "reads and offline replays; per-run fixed costs and the parameter fit",
        PAIRED_REF_CONFIG, {**PAIRED_REF_CONFIG, "total_rounds": 20},
        num_seeds=10, smoke_num_seeds=2),
)}


# --------------------------------------------------------------------------
# Tracing

# Each span wraps the names its callers look up: the engine imports the
# mechanisms and selection functions by name, the harness imports the data
# and engine functions by name, and the benchmark calls the package's
# re-exports. A target that no longer exists is skipped; a span with no
# target left is reported as absent.
SPANS = {
    "engine.run": ["dpflsim.harness:run_dpfl_bcs", "dpflsim.harness:run_baseline"],
    "engine.client_round": ["dpflsim.engine:client_round"],
    "engine.sample_selection": ["dpflsim.engine:sample_selection"],
    "engine.aggregate": ["dpflsim.engine:aggregate"],
    "models.per_sample_gradients": [
        "dpflsim.models:LinearRegression.per_sample_gradients",
        "dpflsim.models:LogisticRegression.per_sample_gradients"],
    "models.per_sample_losses": [
        "dpflsim.models:LinearRegression.per_sample_losses",
        "dpflsim.models:LogisticRegression.per_sample_losses"],
    "models.metrics": ["dpflsim.models:LinearRegression.metrics",
                       "dpflsim.models:LogisticRegression.metrics"],
    "mechanisms.clip_gradient_matrix": ["dpflsim.engine:clip_gradient_matrix"],
    "mechanisms.sample_noise": ["dpflsim.engine:sample_noise"],
    "mechanisms.consume_budget": ["dpflsim.engine:consume_budget"],
    "mechanisms.calibrate": ["dpflsim.engine:gaussian_sigma",
                             "dpflsim.engine:laplace_scale",
                             "dpflsim.engine:gradient_sensitivity"],
    "selection.plan": [f"dpflsim.engine:{n}" for n in (
        "compute_phi_lambda", "approximate_plan", "optimal_plan", "winsorize_upper",
        "largest_remainder_round")],
    "selection.fit": [f"dpflsim.engine:{n}" for n in (
        "estimate_gamma_n", "estimate_rho_min", "observed_stage_loss",
        "estimate_problem_params")],
    "selection.fit_replay": [f"dpflsim.harness:{n}" for n in (
        "compute_phi_lambda", "estimate_gamma_n", "estimate_rho_min",
        "observed_stage_loss", "estimate_problem_params")],
    "data.build": [f"dpflsim.harness:{n}" for n in (
        "generate_synthetic_regression", "generate_synthetic_classification",
        "dirichlet_partition", "sample_budgets")],
    "harness.build_problem": ["dpflsim:build_problem", "dpflsim.harness:build_problem"],
    "harness.history_write": ["dpflsim:write_history", "dpflsim.harness:write_history"],
    "harness.history_read": ["dpflsim:read_history", "dpflsim.harness:read_history"],
    "harness.replay": ["dpflsim:estimate_from_history",
                       "dpflsim.harness:estimate_from_history"],
}
SETUP_SPAN = "harness.build_problem"


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Patches the span targets with timing wrappers while active.

    Per span it keeps calls, total seconds and self seconds, where self time
    is the duration minus the time of the spans nested inside it.
    """

    def __init__(self, spans: dict):
        self.spans = spans
        self.calls = dict.fromkeys(spans, 0)
        self.total = dict.fromkeys(spans, 0.0)
        self.self_time = dict.fromkeys(spans, 0.0)
        self.absent = []
        self._stack = []
        self._patched = []

    def _wrap(self, span: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.calls[span] += 1
                self.total[span] += duration
                self.self_time[span] += duration - children

        return traced

    def __enter__(self):
        for span, targets in self.spans.items():
            resolved = [r for r in map(_resolve, targets) if r is not None]
            if not resolved:
                self.absent.append(span)
            for owner, attr, fn in resolved:
                setattr(owner, attr, self._wrap(span, fn))
                self._patched.append((owner, attr, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


# --------------------------------------------------------------------------
# Checks and counts, all taken from the written histories


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_ledger(parsed) -> list:
    """Replay the accountant from one history and return invariant violations.

    Stage slices are the remaining epsilon at stage start over the planned
    count, exactly as the engine installs them, so the slice sum, realised
    against planned participation and training after exhaustion all follow
    from the header, the round records and the summary's plans.
    """
    header, summary = parsed.header, parsed.summary
    if summary is None:
        return ["history has no summary line"]
    total = {int(c["client_id"]): float(c["epsilon"]) for c in header["clients"]}
    remaining = dict(total)
    charged = dict.fromkeys(total, 0.0)
    plans = (summary["plan_stage1"], summary["plan_stage2"])
    problems = []
    stage, planned, used, slices = 0, None, None, None
    for record in sorted(parsed.rounds, key=lambda r: int(r["t"])):
        if int(record["stage"]) != stage:
            stage = int(record["stage"])
            plan = plans[stage - 1] if stage in (1, 2) else None
            if plan is None:
                return problems + [f"round {record['t']}: no plan for stage {stage}"]
            planned = [int(c) for c in plan["counts"]]
            used = [0] * len(planned)
            slices = {n: remaining[n] / planned[n] for n in total if planned[n] > 0}
        for n in map(int, record["selected"]):
            floor = EXHAUSTION_FLOOR_REL * total[n] + EXHAUSTION_FLOOR_ABS
            if remaining[n] <= floor:
                problems.append(f"client {n} trained after exhaustion in round {record['t']}")
            used[n] += 1
            if used[n] > planned[n]:
                problems.append(f"client {n} realised {used[n]} > planned {planned[n]} "
                                f"in stage {stage}")
                continue
            after = max(0.0, remaining[n] - slices[n])
            charged[n] += remaining[n] - after
            remaining[n] = after
    consumed = summary["budget"]["epsilon_consumed"]
    for n, eps in total.items():
        c = float(consumed[str(n)])
        if not c <= eps + LEDGER_TOL:
            problems.append(f"client {n} consumed {c!r} > budget {eps!r}")
        if not abs(c - charged[n]) <= LEDGER_TOL:
            problems.append(f"client {n} consumed {c!r} != slice sum {charged[n]!r}")
    return problems


def check_finals(parsed) -> list:
    s = parsed.summary or {}
    values = [s.get("final_test_loss"), s.get("final_test_accuracy")]
    if values[0] is None or any(v is not None and not math.isfinite(v) for v in values):
        return [f"final test metric not finite: {values}"]
    return []


@dataclass
class Rep:
    """One timed repetition: wall and set-up seconds plus its checked outputs."""

    wall_s: float
    setup_s: float
    problems: list
    digests: dict
    counts: dict
    final_metric: dict
    trace: Tracer | None = None
    reference_s: tuple = ()

    @property
    def scale(self) -> float:
        """Wall seconds to reference seconds, from the bracketing kernel runs."""
        return REFERENCE_S / statistics.mean(self.reference_s)


def analyse(outputs: Outputs, cfg, num_seeds: int) -> tuple:
    """Correctness problems, history digests and counts of one repetition."""
    problems, digests = [], {}
    counts = dict.fromkeys(("client_rounds", "slots", "fit_sweeps",
                            "plan_overflow_clients", "history_bytes"), 0)
    expected = num_seeds * (len(PAIRED_ALGORITHMS) if num_seeds > 1 else 1)
    if len(outputs.histories) != expected:
        problems.append(f"expected {expected} histories, found {len(outputs.histories)}")
    for path in outputs.histories:
        digests[path.name] = _sha256(path)
        counts["history_bytes"] += path.stat().st_size
        parsed = dpflsim.read_history(path)
        h, s = parsed.header, parsed.summary or {}
        problems += [f"{path.name}: {p}" for p in check_ledger(parsed) + check_finals(parsed)]
        counts["client_rounds"] += sum(len(r["selected"]) for r in parsed.rounds)
        counts["slots"] += int(h["clients_per_round"]) * int(h["total_rounds"])
        est, plan2 = s.get("estimated_params"), s.get("plan_stage2")
        if est is not None:
            counts["fit_sweeps"] += len(est["residual_history"]) - 1
        if plan2 is not None:
            horizon = int(h["total_rounds"]) - int(h["estimation_rounds"])
            counts["plan_overflow_clients"] += sum(c > horizon for c in plan2["counts"])
        if path.name in outputs.replays:
            replayed = json.dumps(outputs.replays[path.name], sort_keys=True)
            if replayed != json.dumps(est, sort_keys=True):
                problems.append(f"{path.name}: replayed estimate differs from the record")
    if num_seeds > 1 and len(outputs.replays) != num_seeds:
        problems.append(f"expected {num_seeds} replays, found {len(outputs.replays)}")
    for result in outputs.results:
        if not np.all(np.isfinite(result.final_state.weights)):
            problems.append("final weights not finite")
    counts["clients"] = cfg.num_clients * num_seeds
    return problems, digests, counts


def run_rep(workload: Workload, cfg, workdir: Path, smoke: bool, traced: bool) -> Rep:
    num_seeds = workload.seeds(smoke)
    tracer = Tracer(SPANS if traced else {SETUP_SPAN: SPANS[SETUP_SPAN]})
    before = reference_kernel_s()
    with tempfile.TemporaryDirectory(dir=workdir) as outdir:
        start = time.perf_counter()
        with tracer:
            outputs = workload.operation(cfg, Path(outdir), smoke)
        wall = time.perf_counter() - start
        problems, digests, counts = analyse(outputs, cfg, num_seeds)
    after = reference_kernel_s()
    return Rep(wall, tracer.total[SETUP_SPAN], problems, digests, counts,
               outputs.final_metric, tracer if traced else None, (before, after))


# --------------------------------------------------------------------------
# Measurement


def peak_rss_child(workload: str, seed: int, smoke: bool) -> float | None:
    """Peak resident MB of a fresh process running one untraced repetition,
    or None when that process fails."""
    cmd = [sys.executable, str(RUN_SCRIPT), "--rss-child", "--workload", workload,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"peak-RSS repetition timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"peak-RSS repetition failed ({proc.returncode}):", proc.stderr[-4000:],
              file=sys.stderr)
        return None
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def rss_child_main(workload: str, seed: int, smoke: bool) -> int:
    wl = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl.operation(wl.config(experiment_seed(seed, 0), smoke), Path(tmp), smoke)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))
    return 0


def _stats(values: list) -> dict:
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpflsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def experiment_seed(seed: int, attempt: int) -> int:
    """Seed of the attempt-th repetition (0 is the warm-up).

    The first timed repetition repeats the warm-up's seed, so every run checks
    that one seed gives byte-identical histories; later repetitions take new
    seeds, so one run covers many inputs and not one seed's plan.
    """
    return seed * 1000 + max(attempt - 1, 0) % 1000


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            workdir: Path) -> tuple:
    """Run the workload; return (result line dict, info dict).

    Untraced: one warm-up repetition, then repetitions until ``seconds`` have
    passed and at least MIN_REPS ran. Traced: the same, alternating untraced
    and traced repetitions so the tracing overhead is measured alongside.
    """
    wl = WORKLOADS[workload]
    rss = None if trace else peak_rss_child(workload, seed, smoke)
    reps, attempted, failed = [], 0, 0
    digests, deadline = {}, None
    while attempted <= MIN_REPS or time.perf_counter() < deadline:
        traced = trace and attempted % 2 == 0 and attempted > 0
        # The traced run keeps one seed, so its counts repeat exactly and its
        # traced and untraced repetitions do the same work.
        cfg = wl.config(experiment_seed(seed, 0 if trace else attempted), smoke)
        attempted += 1
        try:
            rep = run_rep(wl, cfg, workdir, smoke, traced)
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        finally:
            if deadline is None:
                deadline = time.perf_counter() + seconds
        if digests.setdefault(cfg.seed, rep.digests) != rep.digests:
            rep.problems.append(f"seed {cfg.seed}: history bytes differ between repetitions")
        if rep.problems:
            failed += 1
            print(f"repetition {attempted} failed:", *rep.problems[:20], sep="\n  ",
                  file=sys.stderr)
            continue
        if attempted > 1:  # the first repetition is the warm-up
            reps.append(rep)

    if not trace:
        attempted += 1
        failed += rss is None

    info = {
        "workload": workload, "why": wl.why, "seed": seed, "smoke": smoke,
        "trace": trace, "seconds": seconds,
        "config": dataclasses.asdict(wl.config(experiment_seed(seed, 0), smoke)),
        "experiment_seeds": [experiment_seed(seed, 0),
                             experiment_seed(seed, 0 if trace else attempted - 1)],
        "num_seeds": wl.seeds(smoke),
        "failed_run_ratio": {"value": failed / attempted, "unit": "failed/attempted"},
        "environment": environment(),
    }
    plain = [r for r in reps if r.trace is None]
    if plain:
        info["final_metric"] = plain[0].final_metric
        info["counts"] = plain[0].counts
    info["wall_s"] = _stats([r.wall_s for r in plain])
    info["reps"] = [[r.wall_s, r.setup_s, r.counts["client_rounds"], *r.reference_s]
                    for r in plain]
    if trace:
        metrics = layer_metrics(reps, info)
    else:
        # Mean work per repetition over the median repetition time: on
        # wide-bcs the responder count moves with the seed while the time
        # does not, so per-repetition rates scatter more than either part.
        work = statistics.mean(r.counts["client_rounds"] for r in plain) if plain else 0.0
        rep_s = _median([r.wall_s * r.scale for r in plain])
        setups = [r.setup_s * r.scale for r in plain]
        info["raw"] = {
            "client_rounds_per_s": work / info["wall_s"]["median"] if plain else 0.0,
            "setup_s": _stats([r.setup_s for r in plain]),
            "reference_kernel_s": _stats([x for r in plain for x in r.reference_s]),
        }
        info["rep_reference_s"] = _stats([r.wall_s * r.scale for r in plain])
        info["setup_s"] = _stats(setups)
        metrics = {
            "client_rounds_per_s": {"value": work / rep_s if rep_s else 0.0,
                                    "unit": "client-rounds/s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss or 0.0, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(reps: list, info: dict) -> dict:
    """Per-layer metrics of the traced repetition with the median wall time."""
    traced = sorted((r for r in reps if r.trace is not None), key=lambda r: r.wall_s)
    untraced_wall = _median([r.wall_s for r in reps if r.trace is None])
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    rep = traced[len(traced) // 2] if traced else None
    tr = rep.trace if rep else Tracer(SPANS)
    for span in SPANS:
        put(f"{span}.calls", tr.calls[span], "count")
        put(f"{span}.s", tr.total[span], "s")
        put(f"{span}.self_s", tr.self_time[span], "s")
    sel_calls = tr.calls["engine.sample_selection"]
    put("engine.sample_selection.us_per_call",
        1e6 * tr.total["engine.sample_selection"] / sel_calls if sel_calls else 0.0, "us")
    counts = rep.counts if rep else dict.fromkeys(
        ("client_rounds", "slots", "fit_sweeps", "plan_overflow_clients",
         "history_bytes", "clients"), 0)
    put("engine.client_rounds", counts["client_rounds"], "count")
    put("engine.fill_ratio",
        counts["client_rounds"] / counts["slots"] if counts["slots"] else 0.0, "ratio")
    put("selection.fit_sweeps", counts["fit_sweeps"], "count")
    put("selection.plan_overflow_clients", counts["plan_overflow_clients"], "count")
    put("data.clients", counts["clients"], "count")
    put("harness.history_bytes", counts["history_bytes"], "bytes")
    wall = rep.wall_s if rep else 0.0
    self_sum = sum(tr.self_time.values())
    put("trace.wall_s", wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", wall - untraced_wall if rep else 0.0, "s")
    put("trace.spans_self_s", self_sum, "s")
    put("trace.remainder_s", wall - self_sum, "s")
    put("trace.spans_absent", len(tr.absent), "count")
    info["absent_spans"] = tr.absent
    info["traced_reps"] = len(traced)
    return metrics


# --------------------------------------------------------------------------
# Command line


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time after the warm-up repetition")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="tiny variant of the workload, for the benchmark's own tests")
    p.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds < 0:
        p.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.rss_child:
        return rss_child_main(args.workload, args.seed, args.smoke)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.smoke, Path(tmp))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    ratio = info["failed_run_ratio"]
    print(f"failed_run_ratio = {ratio['value']} {ratio['unit']}")
    if "raw" in info:
        print(f"wall-clock client_rounds_per_s = {info['raw']['client_rounds_per_s']}")
        print(f"wall-clock setup_s = {info['raw']['setup_s'].get('median')}")
    print("info " + json.dumps(info, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0
