"""Command-line entry point: experiment runs, standalone selection planning,
offline parameter estimation, and partition dry runs.

Exit codes: 0 success, 1 invalid input (config, roster, or history), 2 runtime
failure. Per-round progress goes to stderr via logging; artifact paths are
printed to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys

import numpy as np

from .config import MECHANISM_CHOICES, load_config
from .errors import ConfigError, ParameterError
from .harness import (
    ComparisonRow,
    HistoryWriter,
    build_problem,
    estimate_from_history,
    read_history,
    run_single,
    settings_from_config,
    write_summary_csv,
)
from .mechanisms import MechanismKind
from .selection import SelectionPlan, approximate_plan, compute_phi_lambda, solve_plan

logger = logging.getLogger(__name__)

ROSTER_COLUMNS = ("client_id", "epsilon", "delta", "num_samples")


def _load_run_config(args):
    return load_config(args.config, args.set, seed=args.seed, output_dir=args.out)


def _out_dir(args, config=None) -> str:
    out = args.out or (config.output_dir if config is not None else "runs/out")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args) -> int:
    config = _load_run_config(args)
    out = _out_dir(args, config)
    snapshot_path = os.path.join(out, "config.txt")
    with open(snapshot_path, "w") as fh:
        fh.write(config.snapshot_text())
    problem = build_problem(config)
    history_path = os.path.join(out, "history.jsonl")
    writer = HistoryWriter(history_path, config.algorithm, settings_from_config(config),
                           problem, config.seed)
    try:
        result = run_single(config, problem, on_round=writer.write_round)
        writer.write_summary(result)
    finally:
        writer.close()
    metric = (result.final_test_accuracy if problem.model.is_classification
              else result.final_test_loss)
    write_summary_csv(os.path.join(out, "summary.csv"),
                      [ComparisonRow(config.algorithm, config.mechanism,
                                     float(metric), 0.0, 1)])
    print(snapshot_path)
    print(history_path)
    print(os.path.join(out, "summary.csv"))
    return 0


def _roster_row(cells: list) -> tuple:
    """(client_id, epsilon, delta, num_samples) of one roster row, its cells
    in `ROSTER_COLUMNS` order; a ValueError names the first field that does
    not parse or lies out of range."""
    client_id, epsilon = int(cells[0]), float(cells[1])
    delta, num_samples = float(cells[2]), int(cells[3])
    if client_id < 0:
        raise ValueError(f"client_id must be >= 0, got {client_id}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (math.isfinite(delta) and 0 <= delta < 1):
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    return client_id, epsilon, delta, num_samples


def read_roster(path) -> tuple:
    """The roster's columns (client ids, epsilon, delta, num_samples), one
    entry per row. Header names may carry spaces around them. Every row that
    has another number of cells than the header, does not parse, holds a
    value out of range or repeats an earlier client id is listed with its
    line number."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read roster file {path}: {exc}") from exc
    reader = csv.reader(lines)
    names = [c.strip() for c in next(reader, [])]
    if names != list(ROSTER_COLUMNS):
        raise ConfigError(
            f"{path}: expected header {','.join(ROSTER_COLUMNS)}, "
            f"got {','.join(names) if names else 'nothing'}")
    rows, bad, line_of = [], [], {}
    for cells in reader:
        lineno = reader.line_num
        if not cells:
            continue
        if len(cells) != len(names):
            bad.append(f"line {lineno}: has {len(cells)} cells, the header has "
                       f"{len(names)}")
            continue
        try:
            values = _roster_row(cells)
        except ValueError as exc:
            bad.append(f"line {lineno}: {exc}")
            continue
        first = line_of.setdefault(values[0], lineno)
        if first != lineno:
            bad.append(f"line {lineno}: client_id {values[0]} repeats line {first}")
            continue
        rows.append(values)
    if bad:
        raise ConfigError(f"{path}: invalid roster rows:\n  " + "\n  ".join(bad))
    if not rows:
        raise ConfigError(f"{path}: roster has no client rows")
    return tuple(np.array(column) for column in zip(*rows))


def _read_gamma_file(path, expected: int) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read gamma file {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: not a number: {text!r}") from None
    if len(values) != expected:
        raise ConfigError(f"{path}: has {len(values)} values, roster has "
                          f"{expected} clients")
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ConfigError(f"{path}: gamma values must be finite and >= 0")
    return arr


def write_plan_csv(path, client_ids, plan: SelectionPlan) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "T_n", "p_n"])
        for client_id, count, prob in zip(client_ids.tolist(), plan.counts,
                                          plan.probabilities):
            writer.writerow([client_id, int(count), repr(float(prob))])


def cmd_plan(args) -> int:
    omegas = (args.omega_a, args.omega_b)
    if args.gamma_file and None in omegas:
        raise ConfigError("--gamma-file requires --omega-a and --omega-b")
    if not args.gamma_file and omegas != (None, None):
        raise ConfigError("--omega-a and --omega-b apply only with --gamma-file")
    if args.rounds < 1:
        raise ConfigError(f"--rounds must be >= 1, got {args.rounds}")
    client_ids, epsilon, delta, num_samples = read_roster(args.roster)
    if not 1 <= args.clients_per_round <= len(client_ids):
        raise ConfigError(f"--clients-per-round must lie in 1..{len(client_ids)}, the "
                          f"roster's clients, got {args.clients_per_round}")
    mechanism = MechanismKind.parse(args.mechanism)
    _, phi = compute_phi_lambda(mechanism, args.model_dim, args.clip_bound, args.c2,
                                epsilon, delta, num_samples, client_ids=client_ids)
    z = mechanism.noise_exponent
    if args.gamma_file:
        gamma = _read_gamma_file(args.gamma_file, len(client_ids))
        plan = solve_plan(phi, gamma, args.omega_a, args.omega_b, args.rounds,
                          args.clients_per_round, z)
    else:
        plan = approximate_plan(phi, args.clients_per_round * args.rounds, z,
                                per_round_selected=args.clients_per_round)
    over = plan.counts > args.rounds
    if over.any():
        # neither plan caps T_n at the horizon yet; a client joins a round at
        # most once, so the sampler cannot carry such a plan out
        print(f"warning: {int(over.sum())} of {len(over)} clients have T_n > "
              f"--rounds {args.rounds}, the largest T_n is {int(plan.counts.max())}; "
              f"a client joins at most once per round", file=sys.stderr)
    out = _out_dir(args)
    plan_path = os.path.join(out, "plan.csv")
    write_plan_csv(plan_path, client_ids, plan)
    print(plan_path)
    return 0


def cmd_estimate(args) -> int:
    parsed = read_history(args.history)
    params = estimate_from_history(parsed)
    out = _out_dir(args)
    params_path = os.path.join(out, "estimated_params.json")
    with open(params_path, "w") as fh:
        json.dump(params.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(params_path)
    return 0


def cmd_partition(args) -> int:
    config = _load_run_config(args)
    problem = build_problem(config)
    out = _out_dir(args, config)
    counts_path = os.path.join(out, "partition.csv")
    with open(counts_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "num_samples"])
        writer.writerows(enumerate(problem.num_samples.tolist()))
    print(counts_path)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed or unknown option as a `ConfigError`, so `main`
    exits 1 as for any other invalid input, where argparse would exit 2;
    `--help` still exits 0. Subcommand parsers are made of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # every command writes into --out; only the config-driven ones read a config
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory")
    configured = argparse.ArgumentParser(add_help=False, parents=[out])
    configured.add_argument("--config", default=None,
                            help="flat key=value config file (defaults apply if omitted)")
    configured.add_argument("--seed", type=int, default=None,
                            help="override the experiment seed")
    configured.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="override a config key (repeatable)")

    parser = _Parser(
        prog="dpflsim",
        description="Differentially private federated learning simulator with "
                    "budget-aware client selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[configured],
                           help="run one experiment from a config file")
    p_run.set_defaults(func=cmd_run)

    p_plan = sub.add_parser("plan", parents=[out],
                            help="compute a selection plan for a client roster")
    p_plan.add_argument("--roster", required=True,
                        help=f"CSV with header {','.join(ROSTER_COLUMNS)}")
    p_plan.add_argument("--mechanism", choices=list(MECHANISM_CHOICES),
                        default="gaussian")
    p_plan.add_argument("--clients-per-round", type=int, default=20)
    p_plan.add_argument("--rounds", type=int, default=200,
                        help="planning horizon in rounds")
    p_plan.add_argument("--model-dim", type=int, required=True)
    p_plan.add_argument("--clip-bound", type=float, default=1.0)
    p_plan.add_argument("--c2", type=float, default=1.0)
    p_plan.add_argument("--gamma-file", default=None,
                        help="per-client loss-gap file (one value per roster row); "
                             "switches from the budget-only plan to the "
                             "bound-minimizing plan, weighed by --omega-a and "
                             "--omega-b, which apply only with it")
    p_plan.add_argument("--omega-a", type=float, default=None)
    p_plan.add_argument("--omega-b", type=float, default=None)
    p_plan.set_defaults(func=cmd_plan)

    p_est = sub.add_parser("estimate", parents=[out],
                           help="re-estimate problem parameters from a run history")
    p_est.add_argument("--history", required=True, help="history.jsonl from a run")
    p_est.set_defaults(func=cmd_estimate)

    p_part = sub.add_parser("partition", parents=[configured],
                            help="dry-run the client partition and report sizes")
    p_part.set_defaults(func=cmd_partition)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - contract maps any failure to 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
