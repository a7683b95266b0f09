"""End-to-end command-line contract: subcommands, artifacts, exit codes."""

import dataclasses
import json
import math

import numpy as np
import pytest

import dpflsim.engine as engine
from dpflsim.cli import build_parser, main, read_roster
from dpflsim.config import ExperimentConfig, load_config
from dpflsim.errors import ConfigError
from dpflsim.harness import (
    build_problem,
    estimate_from_history,
    read_history,
    run_single,
    write_history,
)
from dpflsim.mechanisms import MechanismKind
from dpflsim.selection import EstimatedParams, compute_phi_lambda, predicted_loss_bound


def _write_config(path, **kw):
    base = dict(num_clients=6, clients_per_round=2, total_rounds=12,
                num_samples=300, test_samples=60, feature_dim=3,
                algorithm="fedsgd", seed=11)
    base.update(kw)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


def _write_roster(path, rows):
    lines = ["client_id,epsilon,delta,num_samples"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _read_plan(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == ["client_id", "T_n", "p_n"]
    return [(int(r[0]), int(r[1]), float(r[2])) for r in rows[1:]]


# ------------------------------------------------------------------------ run

def test_run_writes_artifacts_and_defaults_estimation_rounds(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg")  # estimation_rounds omitted
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    snapshot = (out / "config.txt").read_text()
    assert "estimation_rounds = 10" in snapshot
    assert "seed = 11" in snapshot
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "config.txt") in printed
    assert str(out / "history.jsonl") in printed
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == ("algorithm,mechanism,mean_final_metric,"
                                "std_final_metric,num_seeds")
    assert summary_lines[1].startswith("fedsgd,")


def test_run_snapshot_alone_reproduces_history(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg", algorithm="dpfl_bcs",
                        estimation_rounds=3)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    # second run driven only by the recorded snapshot
    assert main(["run", "--config", str(out1 / "config.txt"),
                 "--out", str(out2)]) == 0
    assert (out1 / "history.jsonl").read_bytes() == \
        (out2 / "history.jsonl").read_bytes()


@pytest.mark.parametrize("mechanism", ["gaussian", "laplace"])
def test_run_streamed_history_equals_write_history(tmp_path, mechanism):
    # `run` streams its history a line at a time, flushing each, while
    # `write_history` writes a finished run in one buffered pass; the bytes
    # must agree
    delta = {} if mechanism == "gaussian" else dict(delta_min=0.0, delta_max=0.0)
    cfg_path = _write_config(tmp_path / "exp.cfg", algorithm="dpfl_bcs",
                             estimation_rounds=4, mechanism=mechanism, **delta)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    config = load_config(cfg_path)
    write_history(tmp_path / "written.jsonl", run_single(config))
    streamed = (out / "history.jsonl").read_bytes()
    assert streamed == (tmp_path / "written.jsonl").read_bytes()
    assert json.loads(streamed.splitlines()[0])["mechanism"] == mechanism


def test_run_rejects_estimation_rounds_at_total(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", estimation_rounds=30,
                        total_rounds=20)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "estimation_rounds" in err and "total_rounds" in err


FLOAT_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "float"]


def test_float_fields_cover_the_config():
    assert {"clip_bound", "loss_cap", "lr_initial", "epsilon_max",
            "test_fraction"} <= set(FLOAT_FIELDS)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_float(name, value):
    with pytest.raises(ConfigError, match=rf"^{name} must be finite, got {value}$"):
        ExperimentConfig(**{name: value}).validate()


@pytest.mark.parametrize("override", ["target_noise_std=nan", "epsilon_max=inf",
                                      "clip_bound=inf"])
def test_run_rejects_non_finite_override(tmp_path, capsys, override):
    # before the check: a nan target noise passed its `< 0` check, an
    # infinite epsilon_max failed inside numpy (exit 2), and an infinite clip
    # bound failed deep in the run with a message that named no config field
    name, _, value = override.partition("=")
    assert main(["run", "--set", override, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {name} must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# N = 2, K = 1, T = 8, T0 = 3 with budgets in [1e-16, 1e-14]: a slice of
# epsilon_min / (K * T) = 1.25e-17 lies under the 1e-15 exhaustion floor, and
# dpfl_bcs ran out of budget before its plan, ending at round 6 or 7
FLOOR_BUDGETS = dict(num_clients=2, clients_per_round=1, total_rounds=8,
                     estimation_rounds=3, epsilon_min=1e-16, epsilon_max=1e-14)


def test_config_refuses_budgets_at_the_exhaustion_floor():
    with pytest.raises(ConfigError, match=r"^epsilon_min=1e-16 is too small"):
        ExperimentConfig(**FLOOR_BUDGETS).validate()
    # the floor grows with epsilon_min: a slice just over it passes, and one
    # just under it fails
    ok = ExperimentConfig(**{**FLOOR_BUDGETS, "epsilon_min": 8.1e-15})
    ok.validate()
    with pytest.raises(ConfigError, match="epsilon_min"):
        dataclasses.replace(ok, epsilon_min=8e-15 * (1 + 1e-9)).validate()
    ExperimentConfig().validate()


def test_run_refuses_budgets_at_the_exhaustion_floor(tmp_path, capsys):
    out = tmp_path / "o"
    args = [arg for key, value in FLOOR_BUDGETS.items()
            for arg in ("--set", f"{key}={value}")]
    assert main(["run", *args, "--out", str(out)]) == 1
    assert "error: epsilon_min=1e-16 is too small" in capsys.readouterr().err
    assert not out.exists()


REMOVED_SCHEDULE_KEYS = [("lr_kind", "theory_decay"), ("lr_mu", "0.5"), ("lr_gamma", "3.0"),
                         ("winsorize_percentile", "90")]


@pytest.mark.parametrize("source, key, value", [
    ("set", "momentum", "0.5"), ("set", "weight_decay", "0.01"),
    ("config", "aggregate_by_count", "true"),
    *[(source, key, value) for key, value in REMOVED_SCHEDULE_KEYS
      for source in ("set", "config")]])
def test_run_refuses_removed_update_rule_keys(tmp_path, capsys, source, key, value):
    # momentum, weight decay, divide-by-count aggregation and a step size
    # other than eta0 / (1 + t / h) change the update rule that the plan's
    # bound models, and the replan's winsorization is fixed at the 95th
    # percentile, so none of these is a key: an override or an old config
    # snapshot naming one fails before any output is written
    if source == "set":
        args = ["--set", f"{key}={value}"]
    else:
        args = ["--config", _write_config(tmp_path / "exp.cfg", **{key: value})]
    out = tmp_path / "o"
    assert main(["run", *args, "--out", str(out)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_run_seed_override_changes_history(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2),
                 "--seed", "999"]) == 0
    assert (out1 / "history.jsonl").read_bytes() != \
        (out2 / "history.jsonl").read_bytes()
    assert "seed = 999" in (out2 / "config.txt").read_text()


@pytest.mark.parametrize("command, artifact", [("run", "history.jsonl"),
                                               ("partition", "partition.csv")])
def test_seed_flag_wins_over_set_seed(tmp_path, command, artifact):
    cfg = _write_config(tmp_path / "exp.cfg")
    both, flag = tmp_path / "both", tmp_path / "flag"
    assert main([command, "--config", cfg, "--set", "seed=5", "--seed", "999",
                 "--out", str(both)]) == 0
    assert main([command, "--config", cfg, "--seed", "999", "--out", str(flag)]) == 0
    assert (both / artifact).read_bytes() == (flag / artifact).read_bytes()


def test_crashed_run_leaves_a_history_that_reads_back_and_replays(tmp_path, capsys,
                                                                   monkeypatch):
    # `run` streams its history through `HistoryWriter`, which flushes each
    # line: a run that fails in round T0 + 2 leaves the header and rounds
    # 1..T0 + 1, enough to replay the stage-one fit
    cfg = _write_config(tmp_path / "exp.cfg", algorithm="dpfl_bcs", estimation_rounds=4)
    whole, crashed = tmp_path / "whole", tmp_path / "crashed"
    assert main(["run", "--config", cfg, "--out", str(whole)]) == 0
    calls, client_round = [], engine.client_round

    def failing_round(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4 + 2:
            raise RuntimeError("client round failed")
        return client_round(*args, **kwargs)

    monkeypatch.setattr(engine, "client_round", failing_round)
    assert main(["run", "--config", cfg, "--out", str(crashed)]) == 2
    assert "runtime failure: client round failed" in capsys.readouterr().err
    kinds = [json.loads(line)["kind"]
             for line in (crashed / "history.jsonl").read_text().splitlines()]
    assert kinds == ["header"] + ["round"] * 5
    parsed = read_history(crashed / "history.jsonl")
    assert [r["t"] for r in parsed.rounds] == [1, 2, 3, 4, 5] and parsed.summary is None
    for out in (whole, crashed):
        assert main(["estimate", "--history", str(out / "history.jsonl"),
                     "--out", str(out / "est")]) == 0
    assert (crashed / "est" / "estimated_params.json").read_bytes() == \
        (whole / "est" / "estimated_params.json").read_bytes()


def test_run_runtime_failure_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg")
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    assert main(["run", "--config", cfg, "--out", str(blocker)]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_run_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------- plan

def test_plan_budget_ratio_splits_counts(tmp_path, capsys):
    # gaussian phi = ln(1/delta) / (D eps)^2; second client's 3x phi means
    # a third of the first client's participations, 6 of the 4 rounds, which
    # the command warns about
    delta = math.exp(-1.0)
    roster = _write_roster(tmp_path / "roster.csv",
                           [(0, 1.0, delta, 100),
                            (1, 1.0 / math.sqrt(3.0), delta, 100)])
    out = tmp_path / "out"
    assert main(["plan", "--roster", roster, "--model-dim", "10",
                 "--clients-per-round", "2", "--rounds", "4",
                 "--out", str(out)]) == 0
    rows = _read_plan(out / "plan.csv")
    assert [(r[0], r[1]) for r in rows] == [(0, 6), (1, 2)]
    assert rows[0][2] == pytest.approx(0.75)
    assert rows[1][2] == pytest.approx(0.25)
    assert "1 of 2 clients have T_n > --rounds 4, the largest T_n is 6" in \
        capsys.readouterr().err


def test_plan_identical_clients_uniform(tmp_path):
    roster = _write_roster(tmp_path / "roster.csv",
                           [(n, 2.0, 1e-5, 50) for n in range(4)])
    out = tmp_path / "out"
    assert main(["plan", "--roster", roster, "--model-dim", "8",
                 "--clients-per-round", "2", "--rounds", "6",
                 "--out", str(out)]) == 0
    rows = _read_plan(out / "plan.csv")
    assert [r[1] for r in rows] == [3, 3, 3, 3]
    assert all(r[2] == pytest.approx(0.25) for r in rows)


def _digests_roster(tmp_path):
    """The 500-client Gaussian roster and gamma file that
    tools/history_digests.py plans with."""
    rng = np.random.default_rng(0)
    ids = rng.permutation(500) + 1000
    epsilon = rng.uniform(0.1, 5.0, 500)
    delta = 10 ** rng.uniform(-7, -3, 500)
    samples = rng.integers(5, 2000, 500)
    roster = _write_roster(tmp_path / "roster.csv", zip(
        ids.tolist(), map(repr, epsilon.tolist()), map(repr, delta.tolist()),
        samples.tolist()))
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("".join(
        f"{g!r}\n" for g in np.random.default_rng(2).uniform(0.0, 2.0, 500).tolist()))
    return roster, str(gamma)


@pytest.mark.parametrize("omegas, warning", [
    (("0.01", "0.5"), "1 of 500 clients have T_n > --rounds 100, the largest T_n is 1000"),
    (("1e6", "10"), None),
    (None, None),
])
def test_plan_warns_when_a_count_exceeds_the_horizon(tmp_path, capsys, omegas, warning):
    roster, gamma = _digests_roster(tmp_path)
    extra = [] if omegas is None else ["--gamma-file", gamma, "--omega-a", omegas[0],
                                       "--omega-b", omegas[1]]
    out = tmp_path / "out"
    assert main(["plan", "--roster", roster, "--model-dim", "6", "--clients-per-round",
                 "10", "--rounds", "100", "--clip-bound", "1.5", "--c2", "1.2",
                 "--out", str(out), *extra]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{out / 'plan.csv'}\n"
    counts = [r[1] for r in _read_plan(out / "plan.csv")]
    if warning is None:
        assert max(counts) <= 100 and captured.err == ""
    else:
        assert captured.err.startswith(f"warning: {warning};")


def test_plan_rejects_zero_epsilon_row(tmp_path, capsys):
    roster = _write_roster(tmp_path / "roster.csv",
                           [(0, 1.0, 1e-5, 100), (1, 0.0, 1e-5, 100)])
    assert main(["plan", "--roster", roster, "--model-dim", "4",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "epsilon" in err


def test_plan_rejects_wrong_header(tmp_path, capsys):
    bad = tmp_path / "roster.csv"
    bad.write_text("id,eps,delta,n\n0,1.0,1e-5,10\n")
    assert main(["plan", "--roster", str(bad), "--model-dim", "4",
                 "--out", str(tmp_path / "o")]) == 1
    assert "client_id,epsilon,delta,num_samples" in capsys.readouterr().err


def test_plan_lists_every_bad_roster_row(tmp_path, capsys):
    # under Laplace a delta of 0 is fine, but no delta outside [0, 1) is
    roster = _write_roster(tmp_path / "roster.csv", [
        (0, 1.0, 0.0, 100), (1, 1.0, 2.0, 100), (-1, 1.0, 0.0, 100),
        (2, "x", 0.0, 100), (3, 1.0, 0.0, 0), (4, 1.0, 0.0, 10)])
    assert main(["plan", "--roster", roster, "--mechanism", "laplace",
                 "--model-dim", "4", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    for line in ("line 3: delta must lie in [0, 1), got 2.0",
                 "line 4: client_id must be >= 0, got -1",
                 "line 5: could not convert string to float: 'x'",
                 "line 6: num_samples must be >= 1, got 0"):
        assert line in err
    assert "line 2:" not in err and "line 7:" not in err
    assert not (tmp_path / "o" / "plan.csv").exists()


def test_plan_rejects_duplicate_client_ids(tmp_path, capsys):
    roster = _write_roster(tmp_path / "roster.csv", [
        (0, 1.0, 1e-5, 100), (1, 1.0, 1e-5, 100), (0, 2.0, 1e-5, 50), (1, 1.0, 1e-5, 100)])
    with pytest.raises(ConfigError, match="line 4: client_id 0 repeats line 2"):
        read_roster(roster)
    assert main(["plan", "--roster", roster, "--model-dim", "4",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "line 4: client_id 0 repeats line 2" in err
    assert "line 5: client_id 1 repeats line 3" in err
    assert not (tmp_path / "o" / "plan.csv").exists()


def test_plan_reads_a_roster_header_with_spaces(tmp_path):
    rows = [(0, 1.0, 1e-5, 100), (1, 2.0, 1e-4, 40), (2, 0.5, 1e-5, 70)]
    plain = _write_roster(tmp_path / "plain.csv", rows)
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("client_id, epsilon, delta , num_samples\n" + "".join(
        ", ".join(str(v) for v in row) + "\n" for row in rows))
    for roster, out in ((plain, "a"), (str(spaced), "b")):
        assert main(["plan", "--roster", roster, "--model-dim", "4", "--clients-per-round",
                     "1", "--rounds", "6", "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "b" / "plan.csv").read_bytes() == \
        (tmp_path / "a" / "plan.csv").read_bytes()


def test_plan_lists_a_row_with_more_or_fewer_cells_than_the_header(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("client_id,epsilon,delta,num_samples\n0,1.0,1e-5,100\n"
                      "1,1.0,1e-5\n\n2,1.0,1e-5,100,7\n3,1.0,1e-5,100\n")
    assert main(["plan", "--roster", str(roster), "--model-dim", "4",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "line 3: has 3 cells, the header has 4" in err
    assert "line 5: has 5 cells, the header has 4" in err
    assert "line 2:" not in err and "line 6:" not in err
    assert not (tmp_path / "o" / "plan.csv").exists()


@pytest.mark.parametrize("omega", ["--omega-a", "--omega-b"])
def test_plan_refuses_omegas_without_gamma_file(tmp_path, capsys, omega):
    assert main(_plan_args(tmp_path, omega, "1")) == 1
    assert "--gamma-file" in capsys.readouterr().err
    assert not (tmp_path / "o" / "plan.csv").exists()


def test_plan_gamma_file_requires_omegas(tmp_path, capsys):
    roster = _write_roster(tmp_path / "roster.csv", [(0, 1.0, 1e-5, 100)])
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("0.5\n")
    assert main(["plan", "--roster", roster, "--model-dim", "4",
                 "--gamma-file", str(gamma), "--out", str(tmp_path / "o")]) == 1
    assert "--omega-a" in capsys.readouterr().err


def test_plan_gamma_file_water_fill(tmp_path):
    roster = _write_roster(tmp_path / "roster.csv",
                           [(0, 1.0, 1e-5, 100), (1, 1.0, 1e-5, 100)])
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("# per-client loss gaps\n0.0\n10.0\n")
    out = tmp_path / "out"
    assert main(["plan", "--roster", roster, "--model-dim", "4",
                 "--clients-per-round", "1", "--rounds", "4",
                 "--gamma-file", str(gamma), "--omega-a", "1.0",
                 "--omega-b", "1.0", "--out", str(out)]) == 0
    rows = _read_plan(out / "plan.csv")
    assert sum(r[1] for r in rows) == 4
    # equal budgets, but client 1's dissimilarity penalty shifts rounds to 0
    assert rows[0][1] > rows[1][1]


def test_plan_gamma_file_length_mismatch(tmp_path, capsys):
    roster = _write_roster(tmp_path / "roster.csv",
                           [(0, 1.0, 1e-5, 100), (1, 1.0, 1e-5, 100)])
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("0.5\n")
    assert main(["plan", "--roster", roster, "--model-dim", "4", "--clients-per-round", "1",
                 "--gamma-file", str(gamma), "--omega-a", "1.0",
                 "--omega-b", "1.0", "--out", str(tmp_path / "o")]) == 1
    assert "2 clients" in capsys.readouterr().err


def test_plan_rejects_a_roster_without_client_rows(tmp_path, capsys):
    roster = _write_roster(tmp_path / "roster.csv", [])
    assert main(_plan_args(tmp_path, roster=roster)) == 1
    assert f"error: {roster}: roster has no client rows" in capsys.readouterr().err
    assert not (tmp_path / "o" / "plan.csv").exists()


@pytest.mark.parametrize("content, message", [
    ("# gaps\n0.5\nwide\n", ":3: not a number: 'wide'"),
    ("0.5\n-1.0\n", ": gamma values must be finite and >= 0"),
    ("nan\n1.0\n", ": gamma values must be finite and >= 0"),
], ids=["not_a_number", "negative", "nan"])
def test_plan_rejects_bad_gamma_values(tmp_path, capsys, content, message):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text(content)
    assert main(_plan_args(tmp_path, "--gamma-file", str(gamma), "--omega-a", "1.0",
                           "--omega-b", "1.0")) == 1
    assert f"error: {gamma}{message}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "plan.csv").exists()


# ---------------------------------------------------------------- the options

CONFIG_OPTIONS = {"--out", "--config", "--seed", "--set"}


@pytest.mark.parametrize("command, options", [
    ("run", CONFIG_OPTIONS),
    ("partition", CONFIG_OPTIONS),
    ("plan", {"--out", "--roster", "--mechanism", "--clients-per-round", "--rounds",
              "--model-dim", "--clip-bound", "--c2", "--gamma-file", "--omega-a",
              "--omega-b"}),
    ("estimate", {"--out", "--history"}),
])
def test_each_command_takes_exactly_the_options_it_reads(command, options):
    subcommands, = (action.choices for action in build_parser()._actions
                    if isinstance(action.choices, dict))
    taken = {flag for action in subcommands[command]._actions
             for flag in action.option_strings}
    assert taken - {"-h", "--help"} == options


@pytest.mark.parametrize("option", [["--seed", "7"], ["--set", "seed=7"],
                                    ["--config", "exp.cfg"]])
@pytest.mark.parametrize("command", ["plan", "estimate"])
def test_plan_and_estimate_refuse_config_options(tmp_path, capsys, command, option):
    args = (_plan_args(tmp_path) if command == "plan"
            else ["estimate", "--history", "h.jsonl", "--out", str(tmp_path / "o")])
    assert main(args + option) == 1
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["run", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["plan", "--roster", "r.csv"], "the following arguments are required: --model-dim"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_malformed_command_lines_exit_one(capsys, args, message):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dpflsim") and "error: dpflsim" in err and message in err


@pytest.mark.parametrize("args", [["--help"], ["plan", "--help"]])
def test_help_exits_zero(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dpflsim")


# ------------------------------------------------------------------- estimate

def test_estimate_replays_run_estimates_exactly(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", algorithm="dpfl_bcs",
                        estimation_rounds=4)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    est_out = tmp_path / "est"
    assert main(["estimate", "--history", str(out / "history.jsonl"),
                 "--out", str(est_out)]) == 0
    with open(est_out / "estimated_params.json") as fh:
        replayed = json.load(fh)
    recorded = read_history(out / "history.jsonl").summary["estimated_params"]
    assert replayed == recorded


def test_estimate_truncated_history_names_round(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", algorithm="dpfl_bcs",
                        estimation_rounds=4)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "history.jsonl").read_text().splitlines()
    kept = [ln for ln in lines if json.loads(ln).get("t") != 3]
    trimmed = tmp_path / "trimmed.jsonl"
    trimmed.write_text("\n".join(kept) + "\n")
    assert main(["estimate", "--history", str(trimmed),
                 "--out", str(tmp_path / "e")]) == 1
    assert "round 3" in capsys.readouterr().err


def test_estimate_refuses_a_history_without_loss_reports(tmp_path, capsys):
    # a uniform_dp run reports no losses, so it has no stage-one fit to replay
    cfg = _write_config(tmp_path / "exp.cfg", algorithm="uniform_dp", estimation_rounds=4)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["estimate", "--history", str(out / "history.jsonl"),
                 "--out", str(tmp_path / "e")]) == 1
    assert ("error: history round 1 has no stage-one loss records"
            in capsys.readouterr().err)
    assert not (tmp_path / "e" / "estimated_params.json").exists()


def test_estimate_names_the_header_fields_missing(tmp_path, capsys, stage_one_history):
    header, *rest = json.loads(json.dumps(stage_one_history))
    del header["c2"], header["model_dim"]
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *rest]))
    assert main(["estimate", "--history", str(path), "--out", str(tmp_path / "e")]) == 1
    assert "error: history header is missing fields: model_dim, c2" in capsys.readouterr().err


def test_estimate_missing_file_exits_one(tmp_path, capsys):
    assert main(["estimate", "--history", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "e")]) == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_rejects_concatenated_histories(tmp_path, capsys):
    texts = []
    for seed in (1, 2):
        cfg = _write_config(tmp_path / f"exp{seed}.cfg", algorithm="dpfl_bcs",
                            estimation_rounds=4, seed=seed)
        out = tmp_path / f"out{seed}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        texts.append((out / "history.jsonl").read_text())
    both = tmp_path / "both.jsonl"
    both.write_text("".join(texts))
    second_header = texts[0].count("\n") + 1
    capsys.readouterr()
    assert main(["estimate", "--history", str(both), "--out", str(tmp_path / "e")]) == 1
    assert f"{both}:{second_header}: a second header line" in capsys.readouterr().err
    assert not (tmp_path / "e" / "estimated_params.json").exists()


def test_estimate_rejects_header_clients_out_of_id_order(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", algorithm="dpfl_bcs",
                        estimation_rounds=4)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "history.jsonl").read_text().splitlines()
    header = json.loads(lines[0])

    def variant(name, **changes):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join([json.dumps({**header, **changes})] + lines[1:]) + "\n")
        return path

    # phi_n would follow the list order and gamma_hat_n the ids
    reversed_ids = variant("reversed", clients=header["clients"][::-1])
    # the list and num_clients disagree
    too_many = variant("too_many", num_clients=header["num_clients"] + 1)
    for path in (reversed_ids, too_many):
        with pytest.raises(ConfigError, match="expected ids 0..") as err:
            estimate_from_history(read_history(path))
        assert "phi_n" not in str(err.value)
        capsys.readouterr()
        assert main(["estimate", "--history", str(path),
                     "--out", str(tmp_path / "e")]) == 1
        assert "expected ids 0.." in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage_one_history(tmp_path_factory):
    """The lines of a dpfl_bcs history with four stage-one rounds, parsed."""
    tmp = tmp_path_factory.mktemp("history")
    cfg = _write_config(tmp / "exp.cfg", algorithm="dpfl_bcs", estimation_rounds=4)
    assert main(["run", "--config", cfg, "--out", str(tmp / "out")]) == 0
    lines = [json.loads(ln) for ln in (tmp / "out" / "history.jsonl").read_text().splitlines()]
    assert lines[2]["t"] == 2 and lines[2]["losses"]
    return lines


_DROP = object()

# (line index, key path into that line, new value or _DROP); line 2 is the
# stage-one round t = 2
MALFORMED_HISTORIES = {
    "header_not_object": (0, (), ["header"]),
    "line_not_object": (-1, (), 7),
    "header_field_not_number": (0, ("estimation_rounds",), "four"),
    "clients_not_list": (0, ("clients",), {"0": {}}),
    "client_not_object": (0, ("clients", 1), 3.5),
    "client_lacks_epsilon": (0, ("clients", 1, "epsilon"), _DROP),
    "client_lacks_delta": (0, ("clients", 1, "delta"), _DROP),
    "client_lacks_num_samples": (0, ("clients", 1, "num_samples"), _DROP),
    "epsilon_not_number": (0, ("clients", 1, "epsilon"), "much"),
    "delta_null": (0, ("clients", 1, "delta"), None),
    "num_samples_list": (0, ("clients", 1, "num_samples"), [40]),
    "round_without_t": (2, ("t",), _DROP),
    "round_t_not_integer": (2, ("t",), "two"),
    "round_t_list": (2, ("t",), [2]),
    "losses_not_object": (2, ("losses",), [[1.0, 0.5]]),
    "loss_key_not_id": (2, ("losses",), {"first": [1.0, 0.5]}),
    "loss_not_pair": (2, ("losses",), {"0": 1.0}),
    "loss_pair_too_short": (2, ("losses",), {"0": [1.0]}),
    "loss_pair_not_numbers": (2, ("losses",), {"0": ["low", 0.5]}),
}


def _write_mutated(path, history, index, keys, value):
    """Write the parsed `history` with the value at `keys` in line `index`
    (the whole line for no keys) set to `value`, or dropped for _DROP."""
    lines = json.loads(json.dumps(history))
    if not keys:
        lines[index] = value
    else:
        *parents, last = keys
        owner = lines[index]
        for key in parents:
            owner = owner[key]
        if value is _DROP:
            del owner[last]
        else:
            owner[last] = value
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED_HISTORIES))
def test_estimate_rejects_malformed_history(tmp_path, capsys, stage_one_history, case):
    path = _write_mutated(tmp_path / "history.jsonl", stage_one_history,
                          *MALFORMED_HISTORIES[case])
    with pytest.raises(ConfigError):
        estimate_from_history(read_history(path))
    assert main(["estimate", "--history", str(path), "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runtime failure" not in err
    assert not (tmp_path / "e" / "estimated_params.json").exists()


# well-formed histories that no run writes: (line index, key path, new value,
# the start of the error line); the fixture's header has 6 clients, and line
# 2 is the stage-one round t = 2
IMPOSSIBLE_STAGE_ONE = {
    "estimation_rounds_0": (0, ("estimation_rounds",), 0, "history header "
                            "estimation_rounds must be >= 2 for the stage-one fit, got 0"),
    "estimation_rounds_1": (0, ("estimation_rounds",), 1, "history header "
                            "estimation_rounds must be >= 2 for the stage-one fit, got 1"),
    "clients_per_round_0": (0, ("clients_per_round",), 0,
                            "history header clients_per_round must be >= 1, got 0"),
    "clients_empty": (0, ("clients",), [], "history header clients list is empty"),
    "epsilon_phi_overflow": (0, ("clients", 1, "epsilon"), 1e-200,
                             "client 1: its incoming budget gives Phi_n = inf"),
    "loss_id_negative": (2, ("losses",), {"-1": [1.0, 0.5]},
                         "history round 2: client id -1 lies outside 0..5"),
    "loss_id_num_clients": (2, ("losses",), {"6": [1.0, 0.5]},
                            "history round 2: client id 6 lies outside 0..5"),
    "loss_nan": (2, ("losses",), {"0": [math.nan, 0.5]},
                 "history round 2: client 0's losses must be finite, got [nan, 0.5]"),
    "loss_infinity": (2, ("losses",), {"0": [1.0, math.inf]},
                      "history round 2: client 0's losses must be finite, got [1.0, inf]"),
}


@pytest.mark.parametrize("case", sorted(IMPOSSIBLE_STAGE_ONE))
def test_estimate_refuses_stage_one_facts_no_run_writes(tmp_path, capsys, stage_one_history,
                                                         case):
    assert stage_one_history[0]["num_clients"] == 6
    *mutation, message = IMPOSSIBLE_STAGE_ONE[case]
    path = _write_mutated(tmp_path / "history.jsonl", stage_one_history, *mutation)
    assert main(["estimate", "--history", str(path), "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "e" / "estimated_params.json").exists()


def test_estimate_rejects_laplace_delta_out_of_range(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", algorithm="dpfl_bcs", estimation_rounds=4,
                        mechanism="laplace", delta_min=0.0, delta_max=0.0)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "history.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["clients"][1]["delta"] = 2.0
    path = tmp_path / "delta.jsonl"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert main(["estimate", "--history", str(path), "--out", str(tmp_path / "e")]) == 1
    assert "delta must lie in [0, 1), got 2.0" in capsys.readouterr().err


def test_estimate_fits_forward_generated_history(tmp_path):
    """A history whose stage-one losses come from the bound itself must be
    fit back with residual <= 1e-6."""
    mech = MechanismKind.GAUSSIAN
    lam, phi = compute_phi_lambda(mech, 4, 1.0, 1.0, [1.0, 0.8], [1e-5, 1e-5], [100, 120])
    gamma_hat = np.array([0.05, 0.1])
    truth = EstimatedParams(
        gamma_hat_n=gamma_hat, phi_n=phi, rho_min_hat=1.0, Lambda=lam,
        gamma=3.0, L_smooth=2.0, mu_convex=0.8, sigma_sq=0.2,
        init_dist_sq=2.5, omega_a=1.0, omega_b=1.0)
    # both clients selected in every stage-one round: counts [2, 2] after
    # the first T0-1 = 2 rounds
    target = predicted_loss_bound(truth, np.array([2.0, 2.0]),
                                  elapsed_rounds=2, K=2, z=1)
    header = {"kind": "header", "format_version": 1, "algorithm": "dpfl_bcs",
              "mechanism": "gaussian", "num_clients": 2, "clients_per_round": 2,
              "total_rounds": 8, "estimation_rounds": 3, "model_dim": 4,
              "clip_bound": 1.0, "c2": 1.0, "seed": 0,
              "clients": [{"client_id": 0, "epsilon": 1.0, "delta": 1e-5,
                           "num_samples": 100},
                          {"client_id": 1, "epsilon": 0.8, "delta": 1e-5,
                           "num_samples": 120}]}
    rounds = [
        {"kind": "round", "t": 1, "stage": 1, "selected": [0, 1],
         "losses": {"0": [1.0, 0.95], "1": [1.2, 1.1]}},
        {"kind": "round", "t": 2, "stage": 1, "selected": [0, 1],
         "losses": {"0": [1.0, 0.95], "1": [1.2, 1.1]}},
        # round-T0 gaps are huge so gamma_hat keeps the earlier minima,
        # and the reported current losses average to the bound value
        {"kind": "round", "t": 3, "stage": 1, "selected": [0, 1],
         "losses": {"0": [target, target - 5.0], "1": [target, target - 5.0]}},
    ]
    history = tmp_path / "synthetic.jsonl"
    with open(history, "w") as fh:
        for obj in [header, *rounds]:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    out = tmp_path / "est"
    assert main(["estimate", "--history", str(history), "--out", str(out)]) == 0
    with open(out / "estimated_params.json") as fh:
        fitted = json.load(fh)
    assert fitted["fit_residual"] <= 1e-6
    assert fitted["rho_min_hat"] == pytest.approx(1.0)
    assert fitted["gamma_hat_n"] == pytest.approx([0.05, 0.1])


# ------------------------------------------------------------------ partition

def test_partition_matches_problem_builder(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.cfg", num_clients=5,
                             clients_per_round=2, seed=7)
    out = tmp_path / "out"
    assert main(["partition", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "partition.csv").read_text().splitlines()
    assert lines[0] == "client_id,num_samples"
    sizes = [int(line.split(",")[1]) for line in lines[1:]]
    cfg = ExperimentConfig(num_clients=5, clients_per_round=2, total_rounds=12,
                           num_samples=300, test_samples=60, feature_dim=3,
                           algorithm="fedsgd", seed=7)
    problem = build_problem(cfg)
    assert sizes == problem.num_samples.tolist()
    assert sum(sizes) == 300


# ------------------------------------------------------- unreadable input files

NOT_UTF8 = b"\xff\xfe\x80 not utf-8\n"


def _plan_args(tmp_path, *extra, roster=None):
    if roster is None:
        roster = _write_roster(tmp_path / "roster.csv",
                               [(0, 1.0, 1e-5, 100), (1, 2.0, 1e-5, 100)])
    return ["plan", "--roster", roster, "--model-dim", "4", "--clients-per-round", "1",
            "--rounds", "4", "--out", str(tmp_path / "o"), *extra]


@pytest.mark.parametrize("flag, value, message", [
    ("--clients-per-round", "0", "--clients-per-round must lie in 1..2, the roster's clients"),
    ("--clients-per-round", "3", "--clients-per-round must lie in 1..2, the roster's clients"),
    ("--rounds", "0", "--rounds must be >= 1, got 0"),
], ids=["no-clients-per-round", "more-clients-per-round-than-clients", "no-rounds"])
def test_plan_refuses_flags_out_of_range(tmp_path, capsys, flag, value, message):
    # the plan's own flags are checked against the roster, not left to the
    # plan solver or to a plan that no sampler can carry out
    assert main(_plan_args(tmp_path, flag, value)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "plan.csv").exists()


def test_estimate_history_not_utf8_exits_one(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.write_bytes(NOT_UTF8)
    assert main(["estimate", "--history", str(history), "--out", str(tmp_path / "o")]) == 1
    assert f"error: cannot read history file {history}" in capsys.readouterr().err


def test_run_config_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(NOT_UTF8)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"error: cannot read config file {cfg}" in capsys.readouterr().err


def test_plan_roster_not_utf8_exits_one(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_bytes(b"client_id,epsilon,delta,num_samples\n" + NOT_UTF8)
    assert main(_plan_args(tmp_path, roster=str(roster))) == 1
    assert f"error: cannot read roster file {roster}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "plan.csv").exists()


def test_plan_gamma_file_not_utf8_exits_one(tmp_path, capsys):
    gamma = tmp_path / "gamma.txt"
    gamma.write_bytes(b"0.5\n" + NOT_UTF8)
    assert main(_plan_args(tmp_path, "--gamma-file", str(gamma), "--omega-a", "1.0",
                           "--omega-b", "1.0")) == 1
    assert f"error: cannot read gamma file {gamma}" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"y,x\n1.0,2.0\n" + NOT_UTF8],
                         ids=["missing", "not_utf8"])
def test_run_unreadable_csv_exits_one(tmp_path, capsys, content):
    data = tmp_path / "data.csv"
    if content is not None:
        data.write_bytes(content)
    cfg = _write_config(tmp_path / "exp.cfg", dataset="csv", csv_path=str(data),
                        csv_target_column="y", csv_feature_columns="x")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"error: cannot read CSV file {data}" in capsys.readouterr().err


# ------------------------------------------------------ plan coefficient checks

@pytest.mark.parametrize("flags, message", [
    pytest.param(["--c2", "nan"], "c2=nan", id="c2_nan"),
    pytest.param(["--c2", "inf"], "c2=inf", id="c2_inf"),
    pytest.param(["--clip-bound", "nan"], "clip_bound=nan", id="clip_bound_nan"),
    pytest.param(["--clip-bound", "inf"], "clip_bound=inf", id="clip_bound_inf"),
    pytest.param(["--gamma-file", "G", "--omega-a", "1.0", "--omega-b", "-5"],
                 "omega_b must be nonnegative and finite, got -5.0", id="omega_b_negative"),
    pytest.param(["--gamma-file", "G", "--omega-a", "1.0", "--omega-b", "nan"],
                 "omega_b must be nonnegative and finite, got nan", id="omega_b_nan"),
    pytest.param(["--gamma-file", "G", "--omega-a", "nan", "--omega-b", "1.0"],
                 "omega_a must be positive and finite, got nan", id="omega_a_nan"),
    pytest.param(["--gamma-file", "G", "--omega-a", "inf", "--omega-b", "1.0"],
                 "omega_a must be positive and finite, got inf", id="omega_a_inf"),
])
def test_plan_rejects_bad_coefficients(tmp_path, capsys, flags, message):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("0.5\n1.0\n")
    flags = [str(gamma) if f == "G" else f for f in flags]
    assert main(_plan_args(tmp_path, *flags)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o" / "plan.csv").exists()


@pytest.mark.parametrize("omega_a, omega_b", [("1e-320", "1"), ("1", "1e308"), ("1e308", "1")])
def test_plan_refuses_omegas_beyond_float_range(tmp_path, capsys, omega_a, omega_b):
    # the water-fill overflows at these scales: the error names both omegas,
    # and no RuntimeWarning escapes (the suite turns them into errors)
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("0.5\n1.0\n")
    assert main(_plan_args(tmp_path, "--gamma-file", str(gamma), "--omega-a", omega_a,
                           "--omega-b", omega_b)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot water-fill the plan at "
                          f"omega_a={float(omega_a)}, omega_b={float(omega_b)} with phi_n in")
    assert not (tmp_path / "o" / "plan.csv").exists()


def test_plan_accepts_zero_omega_b(tmp_path):
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("0.5\n1.0\n")
    assert main(_plan_args(tmp_path, "--gamma-file", str(gamma), "--omega-a", "1.0",
                           "--omega-b", "0")) == 0
    assert sum(r[1] for r in _read_plan(tmp_path / "o" / "plan.csv")) == 4
