"""Data generation, partitioning, budget sampling, and CSV ingestion."""

import math

import numpy as np
import pytest

from dpflsim.data import (
    BudgetSamplingConfig,
    Dataset,
    PartitionConfig,
    dirichlet_partition,
    generate_synthetic_classification,
    generate_synthetic_regression,
    ingest_csv,
    sample_budgets,
)
from dpflsim.errors import ParameterError
from dpflsim.models import LogisticRegression


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ParameterError):
        Dataset(np.array([[np.nan]]), np.zeros(1))
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
    _, acc = model.metrics(w, data.features, data.targets)
    return acc


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


def test_partition_conserves_and_disjoint():
    data = generate_synthetic_classification(240, 4, 2, 2.0, seed=4)
    parts = dirichlet_partition(data, PartitionConfig(6, 0.5, seed=11))
    assert sum(p.num_samples for p in parts) == data.num_samples
    # disjoint union: feature rows across clients form a permutation of input
    stacked = np.vstack([p.features for p in parts])
    order_in = np.lexsort(data.features.T)
    order_out = np.lexsort(stacked.T)
    assert np.allclose(data.features[order_in], stacked[order_out])
    assert all(p.num_samples >= 1 for p in parts)


def test_partition_client_blocks_are_read_only():
    data = generate_synthetic_classification(240, 4, 2, 2.0, seed=4)
    parts = dirichlet_partition(data, PartitionConfig(6, 0.5, seed=11))
    before = [(p.features.copy(), p.targets.copy()) for p in parts]
    with pytest.raises(ValueError):
        parts[2].features[0, 0] = 99.0
    with pytest.raises(ValueError):
        parts[2].targets[:] = 0
    with pytest.raises(ValueError):
        np.multiply(parts[2].features, 2.0, out=parts[2].features)
    for p, (features, targets) in zip(parts, before):
        assert np.array_equal(p.features, features)
        assert np.array_equal(p.targets, targets)


def test_split_needs_sizes_that_cover_the_rows():
    data, _ = generate_synthetic_regression(6, 2, 0.1, seed=6)
    order = np.array([5, 0, 3, 1, 4, 2])
    first, second = data.split(order, [4, 2])
    assert np.array_equal(first.targets, data.targets[[5, 0, 3, 1]])
    assert np.array_equal(second.features, data.features[[4, 2]])
    for sizes in ([4, 1], [4, 3], [6, 0], []):
        with pytest.raises(ParameterError):
            data.split(order, sizes)


def test_partition_single_client_and_failure():
    data, _ = generate_synthetic_regression(10, 2, 0.1, seed=6)
    parts = dirichlet_partition(data, PartitionConfig(1, 3.0, seed=0))
    assert len(parts) == 1 and parts[0].num_samples == 10
    tiny, _ = generate_synthetic_regression(3, 2, 0.1, seed=6)
    with pytest.raises(ParameterError):
        dirichlet_partition(tiny, PartitionConfig(5, 3.0, seed=0))


def test_partition_high_alpha_is_uniform():
    for draw in range(20):
        data = generate_synthetic_classification(400, 4, 2, 2.0, seed=50 + draw)
        parts = dirichlet_partition(data, PartitionConfig(4, 1e6, seed=draw))
        for label in range(4):
            label_total = int(np.sum(data.targets == label))
            for p in parts:
                share = np.sum(p.targets == label) / label_total
                assert abs(share - 0.25) <= 0.1 * 0.25 + 2.0 / label_total


def test_budget_sampling_degenerate_and_delta_zero():
    budgets = sample_budgets(BudgetSamplingConfig((1.0, 1.0), (0.0, 0.0), 0), 8)
    assert all(b.epsilon == 1.0 for b in budgets)
    assert all(b.delta == 0.0 for b in budgets)


def test_budget_sampling_monte_carlo_mean():
    budgets = sample_budgets(BudgetSamplingConfig((0.1, 3.0), (1e-5, 1e-4), 7), 10**4)
    eps = np.array([b.epsilon for b in budgets])
    se = (3.0 - 0.1) / math.sqrt(12.0) / math.sqrt(len(eps))
    assert abs(eps.mean() - 1.55) <= 3 * se
    assert eps.min() >= 0.1 and eps.max() <= 3.0
    deltas = np.array([b.delta for b in budgets])
    assert deltas.min() >= 1e-5 and deltas.max() <= 1e-4


def test_budget_config_validation():
    with pytest.raises(ParameterError):
        BudgetSamplingConfig((0.0, 1.0), (0.0, 0.0), 0)
    with pytest.raises(ParameterError):
        BudgetSamplingConfig((2.0, 1.0), (0.0, 0.0), 0)
    with pytest.raises(ParameterError):
        BudgetSamplingConfig((0.5, 1.0), (0.1, 1.0), 0)


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
