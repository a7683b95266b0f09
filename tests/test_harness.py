"""Experiment orchestration: pairing, persistence, and summary assembly."""

import csv
import dataclasses
import gc
import json
import math
import re

import numpy as np
import pytest

import dpflsim.engine as engine
import dpflsim.harness as harness
from dpflsim.cli import main
from dpflsim.config import ExperimentConfig
from dpflsim.data import (
    Dataset,
    dirichlet_partition,
    generate_synthetic_classification,
    generate_synthetic_regression,
)
from dpflsim.engine import ALGORITHMS, ClientLedger
from dpflsim.errors import ConfigError, StateError
from dpflsim.harness import (
    ParsedHistory,
    build_problem,
    dispatch_run,
    estimate_from_history,
    read_history,
    run_comparison,
    run_single,
    settings_from_config,
    write_history,
    write_summary_csv,
)
from dpflsim.mechanisms import MechanismKind, PrivacyBudget
from dpflsim.selection import optimal_plan, winsorize_upper


def _config(**kw):
    defaults = dict(num_clients=6, clients_per_round=2, total_rounds=10,
                    estimation_rounds=3, num_samples=300, test_samples=80,
                    feature_dim=3, seed=42)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_build_problem_shapes_and_determinism():
    cfg = _config()
    problem = build_problem(cfg)
    assert problem.num_clients == 6
    assert problem.num_samples.sum() == problem.train.num_samples == 300
    assert problem.test_data.num_samples == 80
    assert problem.budgets.epsilon.shape == (6,)
    again = build_problem(cfg)
    assert problem.budgets.epsilon.tolist() == again.budgets.epsilon.tolist()
    first = problem.num_samples[0]
    assert first == again.num_samples[0]
    assert np.array_equal(problem.train.features[:first], again.train.features[:first])
    other = build_problem(_config(seed=43))
    assert problem.budgets.epsilon.tolist() != other.budgets.epsilon.tolist()


@pytest.mark.parametrize("dataset", ["synthetic_regression", "synthetic_classification"])
def test_build_problem_checks_once_whatever_the_client_count(monkeypatch, dataset):
    # the partition and the budgets are checked as wholes, so the number of
    # dataset and budget checks in one build does not grow with N
    counts = {}
    for cls in (Dataset, PrivacyBudget):
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    seen = []
    for num_clients in (50, 200):
        counts.update(Dataset=0, PrivacyBudget=0)
        problem = build_problem(_config(dataset=dataset, num_clients=num_clients,
                                        num_samples=4000))
        assert problem.num_clients == num_clients
        seen.append(dict(counts))
    assert seen[0] == seen[1]


def test_build_problem_holds_no_per_client_datasets():
    # the clients' rows are one block and a count column, so the live
    # Dataset objects of a built problem do not grow with N
    live = []
    for num_clients in (50, 500):
        problem = build_problem(_config(num_clients=num_clients, num_samples=4000))
        assert problem.num_clients == num_clients
        gc.collect()
        live.append(sum(type(obj) is Dataset for obj in gc.get_objects()))
        del problem
    assert live[0] == live[1]


def _generated(cfg):
    """The block `build_problem` generates for a synthetic config, and its
    partition's row order and counts, drawn again from the same seeds."""
    total = cfg.num_samples + cfg.test_samples
    data_seed = harness._derived_seed(cfg.seed, harness._DOMAIN_DATA)
    if cfg.dataset == "synthetic_regression":
        full, _ = generate_synthetic_regression(total, cfg.feature_dim,
                                                cfg.target_noise_std, data_seed)
    else:
        full = generate_synthetic_classification(total, cfg.num_classes, cfg.feature_dim,
                                                 cfg.class_separation, data_seed)
    train = full.subset(np.arange(cfg.num_samples))
    rows, num_samples = dirichlet_partition(
        train, cfg.num_clients, cfg.dirichlet_alpha,
        harness._derived_seed(cfg.seed, harness._DOMAIN_PARTITION))
    return full, rows, num_samples


@pytest.mark.parametrize("dataset", ["synthetic_regression", "synthetic_classification"])
def test_build_problem_blocks_equal_the_fancy_index_gather(dataset):
    # the round gathers a client's rows with `take` through the row order;
    # they must hold the bytes of `full[rows]`, the rows the partition gave
    # the client, and the blocks must stay C-contiguous, the layout the
    # round's gather and its einsum read
    cfg = _config(dataset=dataset, num_classes=3, num_clients=7, num_samples=500)
    problem = build_problem(cfg)
    full, rows, num_samples = _generated(cfg)
    assert problem.rows.tolist() == rows.tolist()
    assert problem.num_samples.tolist() == num_samples.tolist()
    n = cfg.num_samples
    train, test = problem.train, problem.test_data
    for got, expected in ((train.features.take(problem.rows, axis=0), full.features[rows]),
                          (train.targets.take(problem.rows), full.targets[rows]),
                          (test.features, full.features[n:]), (test.targets, full.targets[n:])):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous
    for column in (train.features, train.targets, problem.rows):
        assert column.flags.c_contiguous and not column.flags.writeable


@pytest.mark.parametrize("dataset", ["synthetic_regression", "synthetic_classification",
                                     "csv"])
def test_build_problem_views_one_block(dataset, tmp_path):
    # the training rows and the test split are read-only views of one block,
    # the generated one or the shuffled CSV rows, training rows first, so the
    # partition copies no row
    if dataset == "csv":
        _write_csv(tmp_path / "data.csv", 500)
        cfg = _csv_config(tmp_path, num_clients=7)
    else:
        cfg = _config(dataset=dataset, num_classes=3, num_clients=7, num_samples=500)
    problem = build_problem(cfg)
    train, test = problem.train, problem.test_data
    for a, b in ((train.features, test.features), (train.targets, test.targets)):
        assert a.base is not None and a.base is b.base
        assert len(a.base) == train.num_samples + test.num_samples
        assert not a.base.flags.writeable and not b.flags.writeable
        # the test rows follow the training rows
        assert b.__array_interface__["data"][0] - a.__array_interface__["data"][0] == a.nbytes


@pytest.mark.parametrize("algorithm", ["dpfl_bcs", "uniform_dp"])
def test_run_and_history_build_no_per_client_objects(monkeypatch, tmp_path, algorithm):
    # a run keeps its per-client facts in arrays from the first plan to the
    # written history; `RunResult.ledger` builds ClientLedger entries only
    # when read
    built = []

    def counting(self, *args, _init=ClientLedger.__init__, **kwargs):
        built.append(self)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(ClientLedger, "__init__", counting)
    for num_clients in (50, 200):
        cfg = _config(algorithm=algorithm, num_clients=num_clients, clients_per_round=10,
                      total_rounds=12, estimation_rounds=4, num_samples=4000)
        problem = build_problem(cfg)
        built.clear()
        result = run_single(cfg, problem=problem)
        write_history(tmp_path / f"history{num_clients}.jsonl", result)
        assert len(built) == 0
        assert len(result.ledger) == num_clients
        assert len(built) == num_clients


def test_runs_leave_the_budget_columns_as_built(tmp_path):
    # run_comparison runs every algorithm on one problem, so no run may
    # write to the problem's budgets
    cfg = _config(algorithm="dpfl_bcs")
    problem = build_problem(cfg)
    fields = ("epsilon", "delta", "epsilon_remaining", "delta_remaining")
    as_built = {f: getattr(problem.budgets, f).tolist() for f in fields}
    for f in fields:
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem.budgets, f)[0] = 0.0
    first = run_single(cfg, problem=problem)
    assert first.clients.epsilon_consumed.sum() > 0
    uniform = dataclasses.replace(cfg, algorithm="uniform_dp")
    second = run_single(uniform, problem=problem)
    assert {f: getattr(problem.budgets, f).tolist() for f in fields} == as_built
    write_history(tmp_path / "shared.jsonl", second)
    write_history(tmp_path / "fresh.jsonl", run_single(uniform))
    assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


def test_build_problem_classification_and_loss_cap():
    cfg = _config(dataset="synthetic_classification", num_classes=4,
                  delta_min=1e-5, delta_max=1e-4)
    problem = build_problem(cfg)
    assert problem.model.is_classification
    assert problem.model.num_classes == 4
    settings = settings_from_config(cfg)
    assert settings.loss_cap == pytest.approx(math.log(4.0))
    noise_free = settings_from_config(_config(zero_noise=True))
    assert noise_free.dp_enabled is False


def test_run_single_dispatches_by_algorithm():
    res = run_single(_config(algorithm="fedsgd"))
    assert res.algorithm == "fedsgd"
    assert res.plan_stage2 is None
    res = run_single(_config(algorithm="dpfl_bcs"))
    assert res.plan_stage2 is not None


def test_comparison_single_row_std_zero(tmp_path):
    summary = run_comparison(_config(), ["fedsgd"], num_seeds=1,
                             out_dir=tmp_path / "out")
    assert len(summary.rows) == 1
    row = summary.rows[0]
    assert row.algorithm == "fedsgd"
    assert row.std_final_metric == 0.0
    assert row.num_seeds == 1
    with open(tmp_path / "out" / "summary.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "algorithm,mechanism,mean_final_metric,std_final_metric,num_seeds"
    assert len(lines) == 2


def test_comparison_summary_of_finals_near_the_float_range_is_finite():
    # uniform_dp at clip_bound = 1e154 trains to finite test losses near
    # 1e306, whose deviations' squares overflow in np.std (std = inf, and a
    # RuntimeWarning, which fails a test here) unless the summary scales them
    summary = run_comparison(ExperimentConfig(
        num_clients=6, clients_per_round=2, total_rounds=10, estimation_rounds=3,
        num_samples=300, test_samples=80, feature_dim=3, seed=42, clip_bound=1e154),
        ["uniform_dp"], num_seeds=2)
    a, b = summary.finals["uniform_dp"]
    row, = summary.rows
    assert max(abs(a), abs(b)) > 1e300
    assert math.isfinite(row.mean_final_metric) and math.isfinite(row.std_final_metric)
    assert row.mean_final_metric == pytest.approx(a / 2 + b / 2, rel=1e-15)
    assert row.std_final_metric == pytest.approx(abs(a - b) / math.sqrt(2), rel=1e-15)


@pytest.mark.parametrize("clip_bound, algorithms, diverged", [
    (1e154, ["uniform_dp"], [("uniform_dp", 42), ("uniform_dp", 43)]),
    (1.0, list(ALGORITHMS), []),
])
def test_comparison_warns_of_a_run_that_ends_worse_than_it_started(caplog, clip_bound,
                                                                   algorithms, diverged):
    # at clip_bound = 1e154 both seeds' uniform_dp runs start near 0.888 and
    # 2.34 and end near 1e306 and 1e304; at clip_bound = 1 every run ends
    # below its start
    config = ExperimentConfig(
        num_clients=6, clients_per_round=2, total_rounds=10, estimation_rounds=3,
        num_samples=300, test_samples=80, feature_dim=3, seed=42, clip_bound=clip_bound)
    with caplog.at_level("WARNING", logger="dpflsim.engine"):
        summary = run_comparison(config, algorithms, num_seeds=2)
    warned = [r.getMessage() for r in caplog.records if r.name == "dpflsim.engine"]
    assert len(warned) == len(diverged)
    for message, (algorithm, seed), final in zip(warned, diverged,
                                                 summary.finals.get("uniform_dp", [])):
        match = re.fullmatch(rf"{algorithm} seed {seed}: final test loss (\S+) is higher "
                             r"than the initial (\S+)", message)
        assert match and float(match[1]) == pytest.approx(final, rel=1e-5)
        assert float(match[2]) < 3


def test_comparison_paired_and_deterministic(tmp_path):
    cfg = _config(total_rounds=8)
    a = run_comparison(cfg, ["fedsgd", "uniform_dp"], num_seeds=2)
    b = run_comparison(cfg, ["fedsgd", "uniform_dp"], num_seeds=2)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb
    # paired runs share the same per-seed problem; histories must agree on
    # the client roster
    out = tmp_path / "hist"
    run_comparison(cfg, ["fedsgd", "uniform_dp"], num_seeds=1, out_dir=out)
    h_fed = read_history(out / "history_fedsgd_seed42.jsonl")
    h_dp = read_history(out / "history_uniform_dp_seed42.jsonl")
    assert h_fed.header["clients"] == h_dp.header["clients"]
    assert h_fed.header["seed"] == h_dp.header["seed"] == 42


def test_comparison_fedsgd_bounds_dp_algorithms():
    cfg = _config(num_clients=5, total_rounds=12, estimation_rounds=3,
                  epsilon_min=0.5, epsilon_max=2.0)
    summary = run_comparison(cfg, ["fedsgd", "uniform_dp", "weiavg"], num_seeds=3)
    means = {row.algorithm: row.mean_final_metric for row in summary.rows}
    assert means["fedsgd"] <= means["uniform_dp"]
    assert means["fedsgd"] <= means["weiavg"]


def test_comparison_validates_the_config_for_every_listed_algorithm(monkeypatch, tmp_path):
    # a config naming fedsgd passes with T0 = 1, but dpfl_bcs needs T0 >= 2:
    # the comparison refuses the input as a ConfigError before it builds a
    # problem, not as a run failure of the lock-step batch
    def no_build(config):
        raise AssertionError("an invalid comparison builds no problem")

    monkeypatch.setattr(harness, "build_problem", no_build)
    cfg = _config(algorithm="fedsgd", estimation_rounds=1)
    with pytest.raises(ConfigError, match="estimation_rounds must be >= 2 for algorithm"):
        run_comparison(cfg, ["dpfl_bcs", "fedsgd"], num_seeds=2, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_comparison_failure_names_seed_and_algorithm(monkeypatch):
    # the seed's runs go in lock-step; the one whose own step fails is named
    real = engine._Run.finish

    def flaky(run, t, release, on_round):
        if run.algorithm == "weiavg":
            raise RuntimeError("boom")
        return real(run, t, release, on_round)

    monkeypatch.setattr(engine._Run, "finish", flaky)
    with pytest.raises(StateError) as err:
        run_comparison(_config(), ["fedsgd", "weiavg"], num_seeds=1)
    assert "weiavg" in str(err.value)
    assert "42" in str(err.value)


def test_comparison_batch_failure_names_the_seed_and_writes_no_history(monkeypatch, tmp_path):
    # seeds 42 and 43 run in one batch, and only seed 43's weiavg fails: the
    # batch writes none of its histories, and the seed-by-seed rerun names 43
    built = []
    real_build = harness.build_problem

    def recording_build(config):
        built.append(real_build(config))
        return built[-1]

    real_finish = engine._Run.finish

    def flaky(run, t, release, on_round):
        if run.algorithm == "weiavg" and run.problem is built[1]:
            raise RuntimeError("boom")
        return real_finish(run, t, release, on_round)

    batches = []
    real_seeds = harness.run_lockstep_seeds

    def recording_seeds(problems, seeds, *args):
        batches.append(list(seeds))
        return real_seeds(problems, seeds, *args)

    monkeypatch.setattr(harness, "build_problem", recording_build)
    monkeypatch.setattr(engine._Run, "finish", flaky)
    monkeypatch.setattr(harness, "run_lockstep_seeds", recording_seeds)
    with pytest.raises(StateError, match="algorithm 'weiavg' failed at seed 43: boom"):
        run_comparison(_config(), ["fedsgd", "weiavg"], num_seeds=2, out_dir=tmp_path / "out")
    assert batches == [[42, 43]]
    assert list((tmp_path / "out").iterdir()) == []


def test_comparison_client_round_failure_reruns_the_batch_to_name_the_seed(monkeypatch,
                                                                         tmp_path):
    # a failure in the batch's shared client round names no run, so the
    # batch's seeds rerun alone: a round that fails only with seed 43's
    # problem names seed 43, and one that fails only in the batch names the
    # batch's seeds; neither writes a history
    built = []
    real_build = harness.build_problem

    def recording_build(config):
        built.append(real_build(config))
        return built[-1]

    real_round = engine.client_round
    fails_alone = [True]

    def flaky(clients, *args):
        # a lone problem's block reads its problem's rows as they are
        if clients.train is not built[0].train and (
                fails_alone[0] or clients.train is not built[1].train):
            raise RuntimeError("boom")
        return real_round(clients, *args)

    monkeypatch.setattr(harness, "build_problem", recording_build)
    monkeypatch.setattr(engine, "client_round", flaky)
    with pytest.raises(StateError, match="algorithm 'fedsgd' failed at seed 43: boom"):
        run_comparison(_config(), ["fedsgd", "weiavg"], num_seeds=2, out_dir=tmp_path / "one")
    assert list((tmp_path / "one").iterdir()) == []
    built.clear()
    fails_alone[0] = False
    with pytest.raises(StateError, match=r"failed together at seeds \[42, 43\]: boom"):
        run_comparison(_config(), ["fedsgd", "weiavg"], num_seeds=2, out_dir=tmp_path / "two")
    assert list((tmp_path / "two").iterdir()) == []


def test_comparison_names_the_run_whose_weights_turn_non_finite(monkeypatch, tmp_path):
    # an infinite release reaches seed 43's uniform_dp run only, in its batch
    # and alone: the engine names no run, and the rerun names this one
    built = []
    real_build = harness.build_problem

    def recording_build(config):
        built.append(real_build(config))
        return built[-1]

    real_round = engine.client_round

    def poisoning(clients, ids, model, weights, eta, streams, settings, report, dp):
        gradients, losses = real_round(clients, ids, model, weights, eta, streams, settings,
                                       report, dp)
        # run g of the batch is algorithm g % 2 at seed 42 + g // 2; a lone
        # problem's block reads its problem's rows as they are
        runs = np.asarray(ids) // 6
        alone = [p for p, problem in enumerate(built) if clients.train is problem.train]
        seeds = 42 + (alone[0] if alone else runs // 2)
        gradients[(seeds == 43) & np.asarray(dp)[runs]] = np.inf
        return gradients, losses

    monkeypatch.setattr(harness, "build_problem", recording_build)
    monkeypatch.setattr(engine, "client_round", poisoning)
    with pytest.raises(StateError, match="algorithm 'uniform_dp' failed at seed 43: "
                                         "weights must be finite"):
        run_comparison(_config(), ["fedsgd", "uniform_dp"], num_seeds=2,
                       out_dir=tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


def test_comparison_names_the_first_seed_whose_lambda_overflows(tmp_path):
    # a real input: at clip_bound = 1e154 dpfl_bcs's Lambda overflows at set-up
    # for every seed, so the rerun names the first seed's dpfl_bcs
    with pytest.raises(StateError, match=re.escape(
            "algorithm 'dpfl_bcs' failed at seed 42: Lambda overflows at clip_bound = 1e+154")):
        run_comparison(_config(clip_bound=1e154), ["dpfl_bcs", "uniform_dp"], num_seeds=2,
                       out_dir=tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


def test_comparison_derives_each_round_stream_once_per_seed(monkeypatch):
    # the algorithms of one seed share its per-round streams, so a seed has
    # at most one selection and one noise generator installed per round
    # however many algorithms run on it
    installs = []
    real_install = engine.RoundStreams.install

    def counting_install(self, domain, p, t):
        installs.append((self.seeds[p], domain, t))
        return real_install(self, domain, p, t)

    monkeypatch.setattr(engine.RoundStreams, "install", counting_install)
    cfg = _config()
    run_comparison(cfg, ["dpfl_bcs", "uniform_dp", "weiavg"], num_seeds=2)
    assert {seed for seed, _, _ in installs} == {42, 43}
    assert len(set(installs)) == len(installs)
    assert all(domain in (1, 2) and 1 <= t <= cfg.total_rounds for _, domain, t in installs)


@pytest.mark.parametrize("mechanism", ["gaussian", "laplace"])
def test_comparison_histories_match_runs_of_their_own(tmp_path, mechanism):
    # sharing a seed's streams changes no output: each history equals, byte
    # for byte, that of a run that derives its own streams, run in reverse
    # algorithm order
    delta = (1e-5, 1e-4) if mechanism == "gaussian" else (0.0, 0.0)
    cfg = _config(mechanism=mechanism, delta_min=delta[0], delta_max=delta[1],
                  num_clients=8, clients_per_round=3, total_rounds=12,
                  estimation_rounds=4)
    run_comparison(cfg, ALGORITHMS, num_seeds=2, out_dir=tmp_path / "shared")
    for seed in (42, 43):
        cfg_seed = dataclasses.replace(cfg, seed=seed)
        problem = build_problem(cfg_seed)
        settings = settings_from_config(cfg_seed)
        for alg in reversed(ALGORITHMS):
            name = f"history_{alg}_seed{seed}.jsonl"
            write_history(tmp_path / name, dispatch_run(alg, problem, settings, seed))
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / "shared" / name).read_bytes()), name


_NO_DELTA = dict(delta_min=0.0, delta_max=0.0)
# seed 43's clients arrive with their budgets spent (see `_spending_seed`), so
# its DP runs end early while seed 42's runs go on
_ENDS_EARLY = dict(spent_seed=43)


def _spending_seed(spent_seed):
    """`build_problem`, with every client of seed `spent_seed`'s problem
    arriving with nothing left of its budget."""
    def build(config):
        problem = build_problem(config)
        if config.seed == spent_seed:
            budgets = problem.budgets
            problem.budgets = PrivacyBudget(
                budgets.epsilon, budgets.delta, np.zeros_like(budgets.epsilon),
                np.zeros_like(budgets.delta))
        return problem
    return build


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(mechanism=mechanism, dataset=dataset, **extra),
                 id=f"{mechanism}-{dataset}")
    for mechanism, extra in (("gaussian", {}), ("laplace", _NO_DELTA))
    for dataset in ("synthetic_regression", "synthetic_classification")] + [
    pytest.param(_ENDS_EARLY, id="dpfl-bcs-ends-early-on-one-seed"),
])
def test_comparison_seed_batches_equal_runs_of_their_own(monkeypatch, tmp_path, overrides):
    # three seeds in one lock-step batch: each (seed, algorithm) history
    # equals, byte for byte, that of the run made alone
    overrides = dict(overrides)
    spent_seed = overrides.pop("spent_seed", None)
    build = _spending_seed(spent_seed)
    monkeypatch.setattr(harness, "build_problem", build)
    cfg = _config(**{**dict(num_clients=8, clients_per_round=3, total_rounds=12,
                            estimation_rounds=4), **overrides})
    run_comparison(cfg, ALGORITHMS, num_seeds=3, out_dir=tmp_path / "batch")
    for seed in (42, 43, 44):
        cfg_seed = dataclasses.replace(cfg, seed=seed)
        problem = build(cfg_seed)
        settings = settings_from_config(cfg_seed)
        for alg in ALGORITHMS:
            name = f"history_{alg}_seed{seed}.jsonl"
            write_history(tmp_path / name, dispatch_run(alg, problem, settings, seed))
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / "batch" / name).read_bytes()), name
    if spent_seed is not None:
        ran = {seed: read_history(tmp_path / f"history_dpfl_bcs_seed{seed}.jsonl")
               for seed in (42, 43)}
        assert ran[43].summary["ended_early"] and len(ran[43].rounds) < cfg.total_rounds
        assert not ran[42].summary["ended_early"]
        assert len(ran[42].rounds) == cfg.total_rounds


def test_comparison_batches_seeds_under_the_byte_cap(monkeypatch):
    calls, batches = [], []
    real_round, real_seeds = engine.client_round, harness.run_lockstep_seeds

    def counting_round(*args):
        calls.append(args)
        return real_round(*args)

    def recording_seeds(problems, seeds, *args):
        batches.append(list(seeds))
        return real_seeds(problems, seeds, *args)

    monkeypatch.setattr(engine, "client_round", counting_round)
    monkeypatch.setattr(harness, "run_lockstep_seeds", recording_seeds)
    cfg = _config()
    algorithms = ["dpfl_bcs", "uniform_dp", "weiavg"]
    # every seed's client work of a round in one pass
    run_comparison(cfg, algorithms, num_seeds=3)
    assert batches == [[42, 43, 44]]
    assert 0 < len(calls) <= cfg.total_rounds
    # a cap of two seeds' rows closes the batch after two seeds
    problem = build_problem(cfg)
    seed_bytes = (problem.train.features.nbytes + problem.train.targets.nbytes
                  + problem.rows.nbytes)
    calls.clear(), batches.clear()
    monkeypatch.setattr(harness, "BATCH_BYTES", 2 * seed_bytes)
    run_comparison(cfg, algorithms, num_seeds=3)
    assert batches == [[42, 43], [44]]
    # the cap counts bytes: rows twice as wide fill it with one seed
    wide = _config(feature_dim=2 * cfg.feature_dim + 1)
    batches.clear()
    run_comparison(wide, algorithms, num_seeds=2)
    assert batches == [[42], [43]]
    # a cap below one seed's rows runs every seed alone
    calls.clear(), batches.clear()
    monkeypatch.setattr(harness, "BATCH_BYTES", seed_bytes - 1)
    run_comparison(cfg, algorithms, num_seeds=3)
    assert batches == [[42], [43], [44]]
    assert cfg.total_rounds < len(calls) <= 3 * cfg.total_rounds


def test_comparison_closes_a_narrow_row_batch_at_the_seed_cap(monkeypatch, tmp_path):
    # 30 rows at feature_dim 1 take 720 bytes a seed with their row order, so
    # the byte cap alone would batch about 1,450 such seeds; the seed cap splits them, and every
    # history still equals, byte for byte, that of the run made alone
    batches = []
    real_seeds = harness.run_lockstep_seeds

    def recording_seeds(problems, seeds, *args):
        batches.append(list(seeds))
        return real_seeds(problems, seeds, *args)

    monkeypatch.setattr(harness, "run_lockstep_seeds", recording_seeds)
    cfg = _config(num_clients=4, clients_per_round=2, total_rounds=5, estimation_rounds=2,
                  num_samples=30, test_samples=10, feature_dim=1)
    num_seeds = 2 * harness.BATCH_SEEDS + 1
    problem = build_problem(cfg)
    assert num_seeds * (problem.train.features.nbytes + problem.train.targets.nbytes
                        + problem.rows.nbytes) <= harness.BATCH_BYTES
    run_comparison(cfg, ALGORITHMS, num_seeds, out_dir=tmp_path / "batch")
    seeds = list(range(42, 42 + num_seeds))
    cap = harness.BATCH_SEEDS
    assert batches == [seeds[:cap], seeds[cap:2 * cap], seeds[2 * cap:]]
    for seed in seeds:
        cfg_seed = dataclasses.replace(cfg, seed=seed)
        problem = build_problem(cfg_seed)
        settings = settings_from_config(cfg_seed)
        for alg in ALGORITHMS:
            name = f"history_{alg}_seed{seed}.jsonl"
            write_history(tmp_path / name, dispatch_run(alg, problem, settings, seed))
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / "batch" / name).read_bytes()), name


def test_comparison_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        run_comparison(_config(), [], num_seeds=1)
    with pytest.raises(ConfigError):
        run_comparison(_config(), ["gradient_boost"], num_seeds=1)
    with pytest.raises(ConfigError):
        run_comparison(_config(), ["fedsgd"], num_seeds=0)


def test_comparison_refuses_a_repeated_algorithm(tmp_path):
    # a repeated algorithm would be two identical rows whose spread counts
    # every seed twice
    with pytest.raises(ConfigError, match="repeats 'fedsgd'"):
        run_comparison(_config(), ["fedsgd", "uniform_dp", "fedsgd"], num_seeds=2,
                       out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_comparison_does_one_batched_client_pass_per_round(monkeypatch):
    # the seed's algorithms share each round's client work, and with it one
    # budget deduction, so a seed deducts at most once per round
    calls = []
    real = engine.consume_budget

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "consume_budget", counting)
    cfg = _config()
    run_comparison(cfg, ["dpfl_bcs", "uniform_dp", "weiavg"], num_seeds=2)
    assert 0 < len(calls) <= 2 * cfg.total_rounds


def test_history_round_trip(tmp_path):
    cfg = _config(algorithm="dpfl_bcs", total_rounds=6, estimation_rounds=3)
    result = run_single(cfg)
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    parsed = read_history(path)
    assert parsed.header["algorithm"] == "dpfl_bcs"
    assert parsed.header["num_clients"] == 6
    assert len(parsed.rounds) == len(result.rounds)
    for obj, record in zip(parsed.rounds, result.rounds):
        assert obj["t"] == record.t
        assert obj["stage"] == record.stage
        assert tuple(obj["selected"]) == record.selected
        assert obj["test_loss"] == record.test_loss
    assert parsed.summary["final_test_loss"] == result.final_test_loss
    assert parsed.summary["plan_stage2"]["counts"] == [
        int(c) for c in result.plan_stage2.counts]


def test_history_round_line_is_the_same_whatever_the_loss_report_order():
    ids = [0, 2, 10, 3, 11, 1]
    shuffled = [10, 1, 3, 0, 11, 2]
    lines = []
    for order in (sorted(ids), shuffled):
        losses = {n: (n + 0.5, n + 0.25) for n in order}
        record = engine.RoundRecord(t=1, stage=1, selected=tuple(sorted(ids)),
                                    losses=losses, test_loss=1.0, test_accuracy=None)
        lines.append(harness.round_line(record))
    assert lines[0] == lines[1]
    # keys are written in string order
    assert list(json.loads(lines[0])["losses"]) == ["0", "1", "10", "11", "2", "3"]


def test_history_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(ConfigError):
        read_history(path)
    path.write_text('{"kind": "round", "t": 1}\n')
    with pytest.raises(ConfigError):
        read_history(path)
    path.write_text("not json\n")
    with pytest.raises(ConfigError):
        read_history(path)
    with pytest.raises(ConfigError):
        read_history(tmp_path / "missing.jsonl")


def test_read_history_refuses_more_than_one_run(tmp_path):
    cfg = _config(algorithm="dpfl_bcs", total_rounds=8, estimation_rounds=3)
    runs = []
    for seed in (1, 2):
        path = tmp_path / f"seed{seed}.jsonl"
        write_history(path, run_single(dataclasses.replace(cfg, seed=seed)))
        runs.append(path.read_text().splitlines(keepends=True))
    first, second = runs
    n = len(first)
    cases = {
        # `cat` of two runs' histories
        "concatenated": (first + second, n + 1, "a second header line"),
        "second_summary": (first + first[-1:], n + 1, f"a second summary line, after the "
                           f"one at line {n}"),
        "round_after_summary": (first + second[1:2], n + 1,
                                f"a round line after the summary at line {n}"),
        "repeated_round": (first[:3] + second[2:3] + first[3:], 4,
                           "a second round t = 2, after the one at line 3"),
    }
    for name, (lines, line_no, message) in cases.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError) as err:
            read_history(path)
        assert str(err.value).startswith(f"{path}:{line_no}: {message}"), name
    # blank lines are skipped but still counted
    path = tmp_path / "blank.jsonl"
    path.write_text("".join(first[:2] + ["\n"] + first[1:2]))
    with pytest.raises(ConfigError, match=r":4: a second round t = 1, after the one at line 2"):
        read_history(path)


def test_estimate_from_history_replays_run(tmp_path):
    cfg = _config(algorithm="dpfl_bcs", total_rounds=8, estimation_rounds=3)
    result = run_single(cfg)
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    est = estimate_from_history(read_history(path))
    assert est.to_dict() == result.estimated_params.to_dict()


def test_estimate_from_history_names_missing_round(tmp_path):
    cfg = _config(algorithm="dpfl_bcs", total_rounds=8, estimation_rounds=3)
    result = run_single(cfg)
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    lines = path.read_text().splitlines()
    # drop the stage-one round t=2
    kept = [ln for ln in lines if json.loads(ln).get("t") != 2]
    trimmed = tmp_path / "trimmed.jsonl"
    trimmed.write_text("\n".join(kept) + "\n")
    with pytest.raises(ConfigError) as err:
        estimate_from_history(read_history(trimmed))
    assert "round 2" in str(err.value)


def test_estimate_from_history_refuses_a_header_that_is_not_an_object():
    with pytest.raises(ConfigError, match=r"^history header must be an object, got \['header'\]$"):
        estimate_from_history(ParsedHistory(["header"], [], None))


def test_dpfl_bcs_without_noise_plans_every_client_and_spends_nothing(tmp_path):
    # zero_noise turns the accounting off, so the replan takes every client
    # as active and plans stage two from the incoming Phi_n
    cfg = _config(algorithm="dpfl_bcs", zero_noise=True, num_clients=20, clients_per_round=5,
                  total_rounds=30, estimation_rounds=5)
    result = run_single(cfg)
    assert not result.ended_early and len(result.rounds) == 30
    est = result.estimated_params
    whole = optimal_plan(dataclasses.replace(est, gamma_hat_n=winsorize_upper(est.gamma_hat_n)),
                         25, 5, MechanismKind.GAUSSIAN.noise_exponent)
    assert len(whole.counts) == 20 and whole.counts.sum() == 5 * 25
    assert result.plan_stage2.counts.tolist() == whole.counts.tolist()
    assert not result.clients.epsilon_consumed.any()
    assert not result.clients.slice_sum.any()
    path = tmp_path / "history.jsonl"
    write_history(path, result)
    assert estimate_from_history(read_history(path)).to_dict() == est.to_dict()


def test_write_summary_csv_format(tmp_path):
    rows = [harness.ComparisonRow("fedsgd", "gaussian", 0.125, 0.5, 3)]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["algorithm"] == "fedsgd"
    assert float(parsed[0]["mean_final_metric"]) == 0.125
    assert parsed[0]["num_seeds"] == "3"


# ----------------------------------------------------------------- CSV dataset

def _write_csv(path, rows):
    """Write a headered regression CSV of `rows` usable rows and one more,
    the fifth, whose x2 is NA: target y, features x1 and x2 and a constant c.
    Returns the usable rows' targets."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(rows + 1, 2))
    y = x @ np.array([1.5, -0.5]) + 0.3 + 0.1 * rng.normal(size=rows + 1)
    lines = [f"{a!r},{b!r},{c!r},7.25" for a, (b, c) in zip(y.tolist(), x.tolist())]
    lines[4] = lines[4].rsplit(",", 2)[0] + ",NA,7.25"
    path.write_text("\n".join(["y,x1,x2,c"] + lines) + "\n")
    return y[np.arange(rows + 1) != 4]


def _csv_config(tmp_path, **kw):
    return _config(dataset="csv", csv_path=str(tmp_path / "data.csv"), csv_target_column="y",
                   csv_feature_columns="x1, x2, c", **kw)


@pytest.mark.parametrize("test_fraction", [0.2, 0.001])
def test_build_problem_from_csv_drops_the_missing_row_and_splits_the_rest(tmp_path,
                                                                          test_fraction):
    targets = _write_csv(tmp_path / "data.csv", 500)
    problem = build_problem(_csv_config(tmp_path, test_fraction=test_fraction))
    n_test = max(1, round(test_fraction * 500))
    assert problem.test_data.num_samples == n_test
    assert problem.train.num_samples == problem.num_samples.sum() == 500 - n_test
    assert problem.model.feature_dim == 3 and not problem.model.is_classification
    # the split is a permutation of the usable rows
    split = np.concatenate([problem.train.targets, problem.test_data.targets])
    assert sorted(split.tolist()) == sorted(targets.tolist())
    # standardised over the usable rows: the constant column becomes zeros
    features = np.concatenate([problem.train.features, problem.test_data.features])
    assert not features[:, 2].any()
    np.testing.assert_allclose(features[:, :2].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(features[:, :2].std(axis=0), 1.0, rtol=1e-12)


def test_csv_test_fraction_that_leaves_no_training_row_is_refused(tmp_path):
    # four usable rows: round(0.9 * 4) = 4 test rows
    _write_csv(tmp_path / "data.csv", 4)
    with pytest.raises(ConfigError, match="^test_fraction leaves no training rows$"):
        build_problem(_csv_config(tmp_path, test_fraction=0.9))


def test_csv_runs_compare_and_replay(tmp_path, capsys):
    _write_csv(tmp_path / "data.csv", 500)
    cfg = _csv_config(tmp_path, algorithm="dpfl_bcs", total_rounds=12, estimation_rounds=4)
    result = run_single(cfg)
    assert len(result.rounds) == 12 and math.isfinite(result.final_test_loss)
    summary = run_comparison(cfg, ["dpfl_bcs", "uniform_dp"], num_seeds=2)
    assert all(math.isfinite(row.mean_final_metric) for row in summary.rows)
    assert summary.finals["dpfl_bcs"][0] == result.final_test_loss
    # the command line runs it, and the replay of its history is the recorded fit
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                              for f in dataclasses.fields(cfg) if f.name != "output_dir"))
    out, est = tmp_path / "out", tmp_path / "est"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["estimate", "--history", str(out / "history.jsonl"), "--out", str(est)]) == 0
    replayed = json.loads((est / "estimated_params.json").read_text())
    assert replayed == read_history(out / "history.jsonl").summary["estimated_params"]
    assert replayed == result.estimated_params.to_dict()
