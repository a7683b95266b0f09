"""Data generation, partitioning, budget sampling, and CSV ingestion."""

import math

import numpy as np
import pytest

import dpflsim.data as data_module
from dpflsim.data import (
    Dataset,
    dirichlet_partition,
    generate_synthetic_classification,
    generate_synthetic_regression,
    ingest_csv,
    sample_budgets,
)
from dpflsim.engine import FederatedProblem
from dpflsim.errors import ParameterError
from dpflsim.mechanisms import PrivacyBudget
from dpflsim.models import LinearRegression, LogisticRegression


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ParameterError):
        Dataset(np.array([[np.nan]]), np.zeros(1))
    for bad in (np.array([0.0, np.nan]), np.array([np.inf, 0.0], dtype=np.float32),
                np.array([1.0, np.inf], dtype=object)):
        with pytest.raises(ParameterError, match="targets must be finite"):
            Dataset(np.zeros((2, 1)), bad)
    ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
    assert ds.is_classification
    assert not Dataset(np.zeros((3, 2)), np.zeros(3)).is_classification


def test_regression_generator_lstsq_recovery():
    data, w_true = generate_synthetic_regression(200, 4, 0.0, seed=5)
    fitted, *_ = np.linalg.lstsq(data.features, data.targets, rcond=None)
    assert np.max(np.abs(fitted - w_true)) < 1e-6


def test_regression_generator_determinism():
    a, wa = generate_synthetic_regression(50, 3, 0.1, seed=9)
    b, wb = generate_synthetic_regression(50, 3, 0.1, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(wa, wb)
    c, _ = generate_synthetic_regression(50, 3, 0.1, seed=10)
    assert not np.array_equal(a.features, c.features)


def _fit_logistic(data, steps=400, lr=0.5):
    model = LogisticRegression(data.feature_dim, int(data.targets.max()) + 1)
    w = model.init_weights()
    for _ in range(steps):
        grad = model.per_sample_gradients(w, data.features, data.targets).mean(axis=0)
        w = w - lr * grad
    _, acc = model.metrics(w[None, None], data.features[None], data.targets[None])
    return float(acc[0, 0])


def test_classification_generator_separation():
    separated = generate_synthetic_classification(300, 3, 2, 5.0, seed=1)
    assert _fit_logistic(separated) >= 0.99
    merged = generate_synthetic_classification(600, 3, 2, 0.0, seed=2)
    acc = _fit_logistic(merged)
    assert abs(acc - 1.0 / 3.0) < 0.1


def test_classification_label_balance():
    for total, classes in ((100, 3), (101, 3), (17, 5)):
        data = generate_synthetic_classification(total, classes, 2, 1.0, seed=3)
        counts = np.bincount(data.targets, minlength=classes)
        assert counts.sum() == total
        assert counts.max() - counts.min() <= 1


def _client_rows(data, rows, num_samples) -> list:
    """Each client's rows of `data` read through a partition's row order:
    client n's start in the order is the sum of the counts before it."""
    ends = np.cumsum(num_samples)
    return [data.subset(rows[end - count:end])
            for end, count in zip(ends.tolist(), num_samples.tolist())]


def test_partition_conserves_and_disjoint():
    data = generate_synthetic_classification(240, 4, 2, 2.0, seed=4)
    rows, num_samples = dirichlet_partition(data, 6, 0.5, seed=11)
    # every row once: the order is a permutation of the row numbers
    assert rows.dtype.kind == "i" and sorted(rows.tolist()) == list(range(data.num_samples))
    parts = _client_rows(data, rows, num_samples)
    assert sum(p.num_samples for p in parts) == data.num_samples == num_samples.sum()
    assert all(p.num_samples >= 1 for p in parts)
    # each client's rows in ascending order
    ends = np.cumsum(num_samples).tolist()
    for end, count in zip(ends, num_samples.tolist()):
        assert (np.diff(rows[end - count:end]) > 0).all()


def test_partition_client_blocks_are_read_only():
    # the partition returns the row order and the counts, and copies no row:
    # both columns are read-only and the dataset is left as it was
    data = generate_synthetic_classification(240, 4, 2, 2.0, seed=4)
    before = (data.features.copy(), data.targets.copy())
    rows, num_samples = dirichlet_partition(data, 6, 0.5, seed=11)
    order_before, counts_before = rows.copy(), num_samples.copy()
    with pytest.raises(ValueError):
        rows[0] = 1
    with pytest.raises(ValueError):
        np.add(rows, 1, out=rows)
    with pytest.raises(ValueError):
        num_samples[2] = 1
    assert np.array_equal(rows, order_before)
    assert np.array_equal(num_samples, counts_before)
    assert np.array_equal(data.features, before[0]) and np.array_equal(data.targets, before[1])


def test_subset_refuses_masks_and_float_indices():
    # a boolean mask was read as row numbers 0 and 1, and float indices were
    # truncated; both are refused, naming the dtype
    data = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]))
    for indices, dtype in ((np.array([True, False, True]), "bool"),
                           (np.array([0.0, 2.7]), "float64"), ([1.5], "float64")):
        with pytest.raises(ParameterError, match=f"got dtype {dtype}"):
            data.subset(indices)
    assert data.subset(np.flatnonzero([True, False, True])).targets.tolist() == [0, 2]
    assert data.subset([2, 0]).targets.tolist() == [2, 0]
    assert data.subset(np.array([1], dtype=np.uint8)).features.tolist() == [[2.0, 3.0]]


def test_split_needs_sizes_that_cover_the_rows():
    # a problem's row counts cut its row order into the clients' rows, and
    # must cover every row with at least one row per client
    data, _ = generate_synthetic_regression(6, 2, 0.1, seed=6)
    order = np.array([5, 0, 3, 1, 4, 2])

    def problem(sizes):
        n = len(sizes)
        budgets = PrivacyBudget(np.ones(n), np.zeros(n), np.ones(n), np.zeros(n))
        return FederatedProblem(LinearRegression(2), data, order, np.array(sizes, dtype=int),
                                budgets, data)

    first, second = _client_rows(data, order, problem([4, 2]).num_samples)
    assert np.array_equal(first.targets, data.targets[[5, 0, 3, 1]])
    assert np.array_equal(second.features, data.features[[4, 2]])
    for sizes in ([4, 1], [4, 3], [6, 0], []):
        with pytest.raises(ParameterError):
            problem(sizes)


def test_partition_single_client_and_failure():
    data, _ = generate_synthetic_regression(10, 2, 0.1, seed=6)
    rows, num_samples = dirichlet_partition(data, 1, 3.0, seed=0)
    assert rows.tolist() == list(range(10)) and num_samples.tolist() == [10]
    # some client is left empty in all 100 attempts
    labels = generate_synthetic_classification(12, 2, 2, 2.0, seed=6)
    with pytest.raises(ParameterError, match="in 100 attempts"):
        dirichlet_partition(labels, 12, 0.05, seed=0)


def test_partition_refuses_fewer_rows_than_clients_before_drawing(monkeypatch):
    # no draw can give 5 clients a row each out of 3, so none is made
    rounded = []
    monkeypatch.setattr(data_module, "largest_remainder_round",
                        lambda *args: rounded.append(args))
    tiny, _ = generate_synthetic_regression(3, 2, 0.1, seed=6)
    with pytest.raises(ParameterError, match="^3 rows cannot give each of 5 clients a sample$"):
        dirichlet_partition(tiny, 5, 3.0, seed=0)
    assert rounded == []


def test_partition_high_alpha_is_uniform():
    for draw in range(20):
        data = generate_synthetic_classification(400, 4, 2, 2.0, seed=50 + draw)
        parts = _client_rows(data, *dirichlet_partition(data, 4, 1e6, seed=draw))
        for label in range(4):
            label_total = int(np.sum(data.targets == label))
            for p in parts:
                share = np.sum(p.targets == label) / label_total
                assert abs(share - 0.25) <= 0.1 * 0.25 + 2.0 / label_total


def test_budget_sampling_degenerate_and_delta_zero():
    budgets = sample_budgets(8, (1.0, 1.0), (0.0, 0.0), 0)
    assert budgets.epsilon.tolist() == [1.0] * 8
    assert budgets.delta.tolist() == [0.0] * 8


def test_budget_sampling_monte_carlo_mean():
    budgets = sample_budgets(10**4, (0.1, 3.0), (1e-5, 1e-4), 7)
    eps = budgets.epsilon
    se = (3.0 - 0.1) / math.sqrt(12.0) / math.sqrt(len(eps))
    assert abs(eps.mean() - 1.55) <= 3 * se
    assert eps.min() >= 0.1 and eps.max() <= 3.0
    deltas = budgets.delta
    assert deltas.min() >= 1e-5 and deltas.max() <= 1e-4


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_two_row_standardization(tmp_path):
    path = _write(tmp_path, "y,f1\n10,1\n20,3\n")
    data, dropped = ingest_csv(path, "y", ["f1"])
    assert dropped == 0
    # mean 2, population std 1 -> exactly [-1, 1]
    assert data.features[:, 0].tolist() == [-1.0, 1.0]
    assert data.targets.tolist() == [10.0, 20.0]


def test_ingest_constant_column_zeroed(tmp_path):
    path = _write(tmp_path, "y,f1,f2\n1,5,1\n2,5,2\n3,5,3\n")
    data, _ = ingest_csv(path, "y", ["f1", "f2"])
    assert np.array_equal(data.features[:, 0], np.zeros(3))
    assert abs(data.features[:, 1].mean()) < 1e-12


def test_ingest_drops_missing_rows(tmp_path):
    path = _write(tmp_path, "y,f1\n1,2\n,3\n4,NA\n5,6\n")
    data, dropped = ingest_csv(path, "y", ["f1"])
    assert dropped == 2
    assert data.num_samples == 2


def test_ingest_unparseable_lines_reported(tmp_path):
    path = _write(tmp_path, "y,f1\n1,2\nbad,3\n4,worse\n")
    with pytest.raises(ParameterError) as err:
        ingest_csv(path, "y", ["f1"])
    assert "3" in str(err.value) and "4" in str(err.value)


def test_ingest_missing_column_and_empty(tmp_path):
    path = _write(tmp_path, "y,f1\n1,2\n")
    with pytest.raises(ParameterError):
        ingest_csv(path, "y", ["f9"])
    empty = _write(tmp_path, "y,f1\n,\n", name="empty.csv")
    with pytest.raises(ParameterError):
        ingest_csv(empty, "y", ["f1"])


def test_ingest_no_standardize(tmp_path):
    path = _write(tmp_path, "y,f1\n1,4\n2,8\n")
    data, _ = ingest_csv(path, "y", ["f1"], standardize=False)
    assert data.features[:, 0].tolist() == [4.0, 8.0]
