"""Resident memory of one perfbench repetition, phase by phase.

    python tools/phase_rss.py --workload W --seed K [--smoke]

Runs one repetition of a workload of ``perfbench/bench.py``'s ``WORKLOADS``
table, at seed ``K`` and at its smoke size with ``--smoke``, in a fresh child
process, and prints one JSON line: for each phase in order, the child's VmRSS
(resident now) and VmHWM (the peak so far) in MB, read from
``/proc/self/status`` when the phase ends, and ``peak_phase``, the phase that
set the run's peak: the first phase whose VmHWM reaches the last phase's. A
single-run workload's phases are ``import`` (numpy, dpflsim and perfbench),
``build_problem``, ``run`` and ``write_history``. A paired workload's are ``import``, ``run_comparison``
(every seed's build, runs and history writes) and ``read_history`` (every
``dpfl_bcs`` history read back and replayed, as perfbench does).

The child imports dpflsim from this checkout's ``src/`` and the workload table
from ``perfbench/``, which it does not change, and runs with one BLAS thread,
as perfbench's runs do. The exit status is 2 where ``/proc/self/status`` does
not exist, and 1 when the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATUS = Path("/proc/self/status")
FIELDS = {"VmRSS": "vm_rss_mb", "VmHWM": "vm_hwm_mb"}


def memory() -> dict:
    """This process's VmRSS and VmHWM in MB."""
    kb = {}
    for line in STATUS.read_text().splitlines():
        key, _, value = line.partition(":")
        if key in FIELDS:
            kb[key] = int(value.split()[0])
    return {name: kb[key] / 1024.0 for key, name in FIELDS.items()}


def measure(workload: str, seed: int, smoke: bool) -> dict:
    """One repetition of `workload`, with this process's memory after each
    phase; call it in a fresh process."""
    import bench
    import dpflsim

    phases = {"import": memory()}
    wl = bench.WORKLOADS[workload]
    cfg = wl.config(seed, smoke)
    with tempfile.TemporaryDirectory() as out:
        if wl.num_seeds > 1:
            dpflsim.run_comparison(cfg, bench.PAIRED_ALGORITHMS, wl.seeds(smoke),
                                   out_dir=out)
            phases["run_comparison"] = memory()
            for path in sorted(Path(out).glob("history_dpfl_bcs_seed*.jsonl")):
                dpflsim.estimate_from_history(dpflsim.read_history(path))
            phases["read_history"] = memory()
        else:
            problem = dpflsim.build_problem(cfg)
            phases["build_problem"] = memory()
            result = dpflsim.run_single(cfg, problem=problem)
            phases["run"] = memory()
            dpflsim.write_history(Path(out) / "history.jsonl", result)
            phases["write_history"] = memory()
    return {"workload": workload, "seed": seed, "smoke": smoke, "phases": phases,
            "peak_phase": peak_phase(phases)}


def peak_phase(phases: dict) -> str:
    """The first of `phases`, in order, whose VmHWM reaches the last one's."""
    peak = list(phases.values())[-1]["vm_hwm_mb"]
    return next(name for name, figures in phases.items() if figures["vm_hwm_mb"] >= peak)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if not STATUS.is_file():
        print(f"phase_rss: {STATUS} does not exist on this system", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(measure(args.workload, args.seed, args.smoke)))
        return 0
    import bench

    if args.workload not in bench.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd + ["--smoke"] * args.smoke, env=env, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        print(f"phase_rss: the child failed:\n{proc.stderr}", file=sys.stderr)
        return 1
    print(proc.stdout.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
