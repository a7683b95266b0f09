"""A/B benchmark of this checkout against an earlier commit, in alternating pinned pairs.

    python tools/ab.py --base <rev> --workload W [--workload W2 ...] --pairs N
                       --seconds S --label L [--seed K] [--smoke] [--out DIR]

The base tree is exported from ``<rev>`` with ``git archive`` into a temporary
directory. The change side is a snapshot taken before the first pair: this
checkout's tracked files, copied as they are in the working tree (uncommitted
edits included, untracked files left out) into another temporary directory, so
an edit made while a batch runs does not change what is measured. The tool
refuses to run when ``perfbench/`` or ``BENCHMARK.json`` differ between the two
trees, because then the two sides would not measure the same thing.

For each workload it runs ``perfbench/run.py --trace 0`` in each tree, ``N``
pairs of runs of ``S`` seconds. Pair i runs workload seed ``K + i`` on both
sides, the base first in even pairs and the change first in odd ones. Each run
is a child process pinned with ``os.sched_setaffinity`` to the last CPU this
process may use; the peak-RSS child that perfbench starts inherits the
pinning.

It writes ``BENCH_<label>.json`` into ``--out`` (default: the checkout's root):
both commits, each side's ``source_sha256`` (perfbench's hash of the
``src/dpflsim/*.py`` its first run imported), the environment block of the
change's first run, and for every workload and every end-to-end metric of
``BENCHMARK.json``: the per-pair values, each side's median and quartiles, how
many pairs the change won, the median per-pair ratio change/base, and whether
the medians differ by more than the base's interquartile range. After the
file's path it prints one line per workload and metric with those figures. The
exit status is 1 when a run failed or reported itself incorrect, 2 when the
tool refused to run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
# what both trees must hold alike
SHARED = ("perfbench", "BENCHMARK.json")
# a child gets this long beyond its measuring time: warm-up, the peak-RSS child
# and the last repetition
CHILD_MARGIN_S = 600.0


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"ab: git {' '.join(args)} failed: "
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout.decode()


def export(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into `dest` with `git archive`; return the
    commit it names."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def snapshot(dest: Path) -> None:
    """Copy this checkout's tracked files, as they are in the working tree,
    into `dest`; a tracked file deleted in the working tree is left out."""
    for name in git("ls-files", "-z").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _files(tree: Path, name: str) -> dict:
    """Relative path -> bytes of the file or directory `name` of `tree`,
    leaving out bytecode caches."""
    top = tree / name
    if top.is_file():
        return {name: top.read_bytes()}
    return {str(path.relative_to(tree)): path.read_bytes()
            for path in sorted(top.rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts
            and path.suffix != ".pyc"}


def differing_files(base: Path, change: Path) -> list:
    """The files of `SHARED` that one tree lacks or holds with other bytes."""
    differ = []
    for name in SHARED:
        a, b = _files(base, name), _files(change, name)
        differ += sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))
    return differ


def run_side(tree: Path, workload: str, seed: int, seconds: float, smoke: bool,
             cpu: int) -> tuple:
    """One pinned perfbench run in `tree`: its result and the environment
    block of its info line, or the error that stopped it and None."""
    cmd = [sys.executable, str(tree / RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False,
                              timeout=seconds + CHILD_MARGIN_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("info "):
        return {"error": f"exit status {proc.returncode}: {proc.stderr[-2000:]}"}, None
    result = json.loads(lines[-1])
    info = json.loads(lines[-2][len("info "):])
    return ({"correct": result["correct"],
             "metrics": {name: m["value"] for name, m in result["metrics"].items()}},
            info["environment"])


def _stats(values: list) -> dict:
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs: list, metrics: list) -> dict:
    """Per metric: each side's values and statistics, the change's wins and
    the median per-pair ratio, over the pairs where both sides ran."""
    summary = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if "metrics" in p["base"] and "metrics" in p["change"]]
        base = [b for b, _ in both]
        change = [c for _, c in both]
        wins = sum((c > b) if higher else (c < b) for b, c in both)
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "base": _stats(base), "change": _stats(change),
                 "change_wins": wins, "pairs": len(both),
                 "ratio_median": (statistics.median(c / b for b, c in both)
                                  if both and all(base) else None)}
        if both:
            gain = entry["change"]["median"] - entry["base"]["median"]
            iqr = entry["base"]["q3"] - entry["base"]["q1"]
            entry["median_gain"] = gain if higher else -gain
            entry["base_iqr"] = iqr
            entry["gain_exceeds_base_iqr"] = entry["median_gain"] > iqr
        summary[name] = entry
    return summary


def summary_lines(workloads: dict) -> list:
    """One line per workload and metric: the base's median and interquartile
    range, the change's median, its wins, the median per-pair ratio and
    whether the gain exceeds the base's interquartile range."""
    lines = []
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            if not m["pairs"]:
                lines.append(f"{workload} {name}: no pair where both sides ran")
                continue
            base, ratio = m["base"], m["ratio_median"]
            lines.append(
                f"{workload} {name}: base {base['median']:.6g} "
                f"[IQR {base['q1']:.6g}-{base['q3']:.6g}], "
                f"change {m['change']['median']:.6g}, "
                f"change wins {m['change_wins']}/{m['pairs']}, ratio_median "
                f"{'n/a' if ratio is None else f'{ratio:.4f}'}, "
                f"gain_exceeds_base_iqr {m['gain_exceeds_base_iqr']}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--workload", required=True, action="append",
                   help="perfbench workload; repeat for several")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="perfbench's measuring time of each run")
    p.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed of the first pair; pair i runs seed + i")
    p.add_argument("--smoke", action="store_true", help="perfbench's tiny workloads")
    p.add_argument("--out", type=Path, default=ROOT, help="directory of the output file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if args.seconds < 0 or args.seed < 0:
        p.error("--seconds and --seed must be nonnegative")
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        p.error("--label may hold only letters, digits, '.', '_' and '-'")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in benchmark["workloads"]}
    unknown = sorted(set(args.workload) - known)
    if unknown:
        print(f"ab: unknown workloads {unknown}; BENCHMARK.json lists {sorted(known)}",
              file=sys.stderr)
        return 2
    cpu = max(os.sched_getaffinity(0))
    change_commit = git("rev-parse", "HEAD").strip()
    uncommitted = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    with tempfile.TemporaryDirectory(prefix="ab-base-") as base_tmp, \
            tempfile.TemporaryDirectory(prefix="ab-change-") as change_tmp:
        base_tree, change_tree = Path(base_tmp), Path(change_tmp)
        base_commit = export(args.base, base_tree)
        snapshot(change_tree)
        differ = differing_files(base_tree, change_tree)
        if differ:
            print("ab: the trees differ in what the benchmark is made of; refusing:\n  "
                  + "\n  ".join(differ), file=sys.stderr)
            return 2
        trees = {"base": base_tree, "change": change_tree}
        workloads, failed, environment = {}, 0, None
        sources = {}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], env = run_side(trees[side], workload, seed, args.seconds,
                                               args.smoke, cpu)
                    if env is not None:
                        sources.setdefault(side, env["source_sha256"])
                    if side == "change":
                        environment = environment or env
                for side in order:
                    if not pair[side].get("correct", False):
                        failed += 1
                        print(f"ab: {workload} seed {seed} {side} failed: "
                              f"{pair[side].get('error', 'incorrect result')}",
                              file=sys.stderr)
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{side} {pair[side].get('metrics')}" for side in ("base", "change")),
                    file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = {"pairs": pairs,
                                   "metrics": summarise(pairs, benchmark["end_to_end"])}
    bench = {
        "label": args.label,
        "command": ["python", "tools/ab.py", *(argv if argv is not None else sys.argv[1:])],
        "base": {"rev": args.base, "commit": base_commit,
                 "source_sha256": sources.get("base")},
        "change": {"commit": change_commit, "uncommitted_changes": uncommitted,
                   "source_sha256": sources.get("change")},
        "pairs": args.pairs, "seconds": args.seconds, "first_seed": args.seed,
        "cpu": cpu, "smoke": args.smoke,
        "environment": environment,
        "workloads": workloads,
    }
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(out)
    for line in summary_lines(workloads):
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
