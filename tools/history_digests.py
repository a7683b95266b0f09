"""Print the SHA-256 of every history a fixed set of seeded runs writes.

Run it as ``python tools/history_digests.py`` from a checkout, before and
after a change that must not move seeded outputs, and diff the two listings.
It takes no options. The runs go through the package's public API into a
temporary directory that is removed on exit:

- each benchmark workload of ``perfbench/bench.py`` (its full config, read
  from that file) at config seeds 0 and 3, with ``paired-ref``'s replayed
  ``estimated_params`` and summary CSV;
- a 32-history matrix: the four algorithms x {gaussian, laplace} x
  {synthetic_regression, synthetic_classification} x seeds {0, 1}, N=30,
  K=6, T=40, T0=5, with the eight ``dpfl_bcs`` replays;
- a comparison matrix: ``run_comparison`` of the four algorithms x
  {gaussian, laplace} x {synthetic_regression, synthetic_classification} x
  seeds {0, 1} at the matrix's sizes, with each comparison's summary CSV and
  ``dpfl_bcs`` replay;
- a seed-batch matrix: ``run_comparison`` of the four algorithms over three
  seeds (0, 1, 2) per {gaussian, laplace} x {synthetic_regression,
  synthetic_classification} cell at the matrix's sizes, so each cell's seeds
  run in one lock-step batch, with each comparison's summary CSV and
  ``dpfl_bcs`` replays;
- the ``plan.csv`` that ``dpflsim plan`` writes for three fixed seeded
  rosters of 500 clients with shuffled ids: a Gaussian and a Laplace
  budget-only plan, and a Gaussian ``--gamma-file`` plan (the rosters and the
  gamma file are digested too).

Each output line is ``<sha256>  <name>``, sorted by name.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# perfbench/ is only read: leave no bytecode cache in it
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402  (perfbench/bench.py, read for its workload configs)
import dpflsim  # noqa: E402
from dpflsim import cli  # noqa: E402

WORKLOAD_SEEDS = (0, 3)
MATRIX = dict(num_clients=30, clients_per_round=6, total_rounds=40, estimation_rounds=5)
ROSTER_CLIENTS = 500
PLAN_ARGS = ["--model-dim", "6", "--clients-per-round", "10", "--rounds", "100",
             "--clip-bound", "1.5", "--c2", "1.2"]


def _write_replays(out: Path) -> None:
    for path in sorted(out.glob("*dpfl_bcs*.jsonl")):
        params = dpflsim.estimate_from_history(dpflsim.read_history(path))
        replay = path.with_name(path.stem + ".estimated_params.json")
        replay.write_text(json.dumps(params.to_dict(), sort_keys=True, indent=2) + "\n")


def _single(cfg, out: Path, name: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    dpflsim.write_history(out / name, dpflsim.run_single(cfg))


def write_workloads(root: Path) -> None:
    for name, workload in sorted(bench.WORKLOADS.items()):
        for seed in WORKLOAD_SEEDS:
            cfg = workload.config(seed, smoke=False)
            out = root / name / f"seed{seed}"
            if workload.num_seeds > 1:
                dpflsim.run_comparison(cfg, bench.PAIRED_ALGORITHMS, workload.num_seeds,
                                       out_dir=str(out))
                _write_replays(out)
            else:
                _single(cfg, out, "history.jsonl")


def _cells():
    """(mechanism, dataset, config overrides) of each matrix cell."""
    for mechanism in ("gaussian", "laplace"):
        delta = {} if mechanism == "gaussian" else {"delta_min": 0.0, "delta_max": 0.0}
        for dataset in ("synthetic_regression", "synthetic_classification"):
            yield mechanism, dataset, dict(mechanism=mechanism, dataset=dataset, **delta)


def write_matrix(root: Path) -> None:
    out = root / "matrix"
    for algorithm in dpflsim.ALGORITHMS:
        for mechanism, dataset, cell in _cells():
            for seed in (0, 1):
                cfg = dpflsim.ExperimentConfig(algorithm=algorithm, seed=seed, **MATRIX,
                                               **cell)
                _single(cfg, out, f"{algorithm}_{mechanism}_{dataset}_seed{seed}.jsonl")
    _write_replays(out)


def write_comparisons(root: Path) -> None:
    # every algorithm of a seed in one comparison: unnoised fedsgd next to the
    # DP runs, dpfl_bcs's loss-reporting rounds next to gradient-only ones
    for mechanism, dataset, cell in _cells():
        for seed in (0, 1):
            out = root / "comparisons" / f"{mechanism}_{dataset}_seed{seed}"
            cfg = dpflsim.ExperimentConfig(seed=seed, **MATRIX, **cell)
            dpflsim.run_comparison(cfg, dpflsim.ALGORITHMS, 1, out_dir=str(out))
            _write_replays(out)


def write_seed_batches(root: Path) -> None:
    # several seeds of one comparison in one batch: each seed's runs draw
    # from that seed's streams next to the other seeds' runs
    for mechanism, dataset, cell in _cells():
        out = root / "seed_batches" / f"{mechanism}_{dataset}"
        cfg = dpflsim.ExperimentConfig(seed=0, **MATRIX, **cell)
        dpflsim.run_comparison(cfg, dpflsim.ALGORITHMS, 3, out_dir=str(out))
        _write_replays(out)


def _write_roster(path: Path, mechanism: str, seed: int) -> None:
    rng = np.random.default_rng(seed)
    ids = rng.permutation(ROSTER_CLIENTS) + 1000
    epsilon = rng.uniform(0.1, 5.0, ROSTER_CLIENTS)
    delta = (10 ** rng.uniform(-7, -3, ROSTER_CLIENTS) if mechanism == "gaussian"
             else np.zeros(ROSTER_CLIENTS))
    samples = rng.integers(5, 2000, ROSTER_CLIENTS)
    rows = zip(ids.tolist(), epsilon.tolist(), delta.tolist(), samples.tolist())
    path.write_text("client_id,epsilon,delta,num_samples\n" + "".join(
        f"{i},{e!r},{d!r},{n}\n" for i, e, d, n in rows))


def _plan(out: Path, roster: Path, mechanism: str, *extra: str) -> None:
    args = cli.build_parser().parse_args(
        ["plan", "--roster", str(roster), "--mechanism", mechanism, "--out", str(out),
         *PLAN_ARGS, *extra])
    # the command prints the plan's path, which is not part of the listing
    with contextlib.redirect_stdout(io.StringIO()):
        if args.func(args) != 0:
            raise RuntimeError(f"dpflsim plan failed for {roster}")


def write_plans(root: Path) -> None:
    out = root / "plans"
    out.mkdir()
    for mechanism, seed in (("gaussian", 0), ("laplace", 1)):
        roster = out / f"roster_{mechanism}.csv"
        _write_roster(roster, mechanism, seed)
        _plan(out / mechanism, roster, mechanism)
    gamma = out / "gamma.txt"
    values = np.random.default_rng(2).uniform(0.0, 2.0, ROSTER_CLIENTS).tolist()
    gamma.write_text("".join(f"{g!r}\n" for g in values))
    _plan(out / "gaussian_gamma", out / "roster_gaussian.csv", "gaussian",
          "--gamma-file", str(gamma), "--omega-a", "1e6", "--omega-b", "10")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_workloads(root)
        write_matrix(root)
        write_comparisons(root)
        write_seed_batches(root)
        write_plans(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
