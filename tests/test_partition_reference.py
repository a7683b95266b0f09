"""The partition and the budgets against frozen references of their old form.

`_reference_partition` (with `_reference_split_by_proportions`) and
`_reference_budgets` are copies of `dirichlet_partition` and `sample_budgets`
as they were before the partition recorded each row's owner and returned a
row order, and before the budgets became one array budget. The current
functions make the same random draws in the same order, so every client's
rows, read through the order, and every budget column must equal the
reference's exactly.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from dpflsim.data import Dataset, dirichlet_partition, sample_budgets
from dpflsim.errors import ParameterError
from dpflsim.mechanisms import PrivacyBudget
from dpflsim.selection import largest_remainder_round

# the parameter records the references read, as the package's old config
# classes held them; the package now takes the values themselves
PartitionConfig = namedtuple("PartitionConfig", "num_clients dirichlet_alpha seed")
BudgetSamplingConfig = namedtuple("BudgetSamplingConfig", "epsilon_range delta_range seed")


def _reference_split_by_proportions(indices: np.ndarray, proportions: np.ndarray) -> list:
    counts = largest_remainder_round(proportions * len(indices), len(indices))
    parts = []
    start = 0
    for c in counts:
        parts.append(indices[start:start + c])
        start += c
    return parts


def _reference_partition(dataset, config: PartitionConfig) -> list:
    n_clients = config.num_clients
    if n_clients == 1:
        return [dataset]
    rng = np.random.default_rng(config.seed)
    alpha_vec = np.full(n_clients, config.dirichlet_alpha)
    for _ in range(100):
        per_client = [[] for _ in range(n_clients)]
        if dataset.is_classification:
            for label in np.unique(dataset.targets):
                idx = np.flatnonzero(dataset.targets == label)
                idx = idx[rng.permutation(len(idx))]
                for client, part in enumerate(
                        _reference_split_by_proportions(idx, rng.dirichlet(alpha_vec))):
                    per_client[client].append(part)
        else:
            idx = rng.permutation(dataset.num_samples)
            for client, part in enumerate(
                    _reference_split_by_proportions(idx, rng.dirichlet(alpha_vec))):
                per_client[client].append(part)
        sizes = [sum(len(p) for p in parts) for parts in per_client]
        if min(sizes) >= 1:
            return [dataset.subset(np.sort(np.concatenate(parts))) for parts in per_client]
    raise ParameterError(
        f"could not give every one of {n_clients} clients a sample in 100 attempts; "
        "the dataset is too small or alpha too extreme")


def _reference_budgets(config: BudgetSamplingConfig, num_clients: int) -> list:
    if num_clients < 1:
        raise ParameterError("num_clients must be >= 1")
    rng = np.random.default_rng(config.seed)
    eps_lo, eps_hi = config.epsilon_range
    d_lo, d_hi = config.delta_range
    epsilons = rng.uniform(eps_lo, eps_hi, num_clients)
    deltas = rng.uniform(d_lo, d_hi, num_clients) if d_hi > 0 else np.zeros(num_clients)
    return [PrivacyBudget.fresh(float(e), float(d)) for e, d in zip(epsilons, deltas)]


class _CountingDataset:
    """A dataset as the reference sees it, counting its draws: the reference
    reads `is_classification` once per attempt."""

    def __init__(self, data: Dataset):
        self.data = data
        self.attempts = 0

    @property
    def is_classification(self) -> bool:
        self.attempts += 1
        return self.data.is_classification

    def __getattr__(self, name):
        return getattr(self.data, name)


def _random_instance(rng):
    """A dataset and a partition config: regression or classification, N
    log-uniform in 1..300, alpha log-uniform in [0.05, 1e6]. A fifth of the
    datasets hold at most as many rows as clients, N in 2..40 (mostly the
    100-attempt failure), and a fifth barely more (redraws). N is mostly
    small because a failure, frequent at low alpha, runs all 100 draws."""
    n_clients = int(round(10 ** rng.uniform(0, math.log10(300))))
    alpha = float(10 ** rng.uniform(math.log10(0.05), 6))
    shape = rng.integers(5)
    if shape == 0:
        n_clients = int(rng.integers(2, 41))
        n_rows = int(rng.integers(1, n_clients + 1))
    elif shape == 1:
        n_rows = n_clients + int(rng.integers(0, n_clients + 2))
    else:
        n_rows = n_clients * int(rng.integers(2, 20))
    features = rng.standard_normal((n_rows, int(rng.integers(1, 5))))
    if rng.random() < 0.5:
        dtype = (np.int64, np.int32, np.uint8)[rng.integers(3)]
        targets = rng.integers(0, rng.integers(2, 11), n_rows).astype(dtype)
    else:
        targets = rng.standard_normal(n_rows)
    return Dataset(features, targets), PartitionConfig(n_clients, alpha, int(rng.integers(2**31)))


def test_partition_is_bit_identical_to_reference():
    seen = {"classification": 0, "regression": 0, "redrawn": 0, "failed": 0,
            "label_absent": 0, "single_client": 0}
    for instance in range(300):
        data, config = _random_instance(np.random.default_rng(instance))
        counted = _CountingDataset(data)
        try:
            expected = _reference_partition(counted, config)
        except ParameterError:
            # fewer rows than clients is refused before any draw
            message = ("rows cannot give each of" if data.num_samples < config.num_clients
                       else "100 attempts")
            with pytest.raises(ParameterError, match=message):
                dirichlet_partition(data, *config)
            seen["failed"] += 1
            continue
        rows, num_samples = dirichlet_partition(data, *config)
        assert len(num_samples) == len(expected), instance
        # client n's slice of the order starts after the rows of clients 0..n-1
        ends = np.cumsum(num_samples).tolist()
        assert ends[-1] == len(rows) == data.num_samples, instance
        parts = [data.subset(rows[end - count:end])
                 for end, count in zip(ends, num_samples.tolist())]
        for got, want in zip(parts, expected):
            for a, b in ((got.features, want.features), (got.targets, want.targets)):
                assert a.dtype == b.dtype and np.array_equal(a, b), instance
        seen["classification" if data.is_classification else "regression"] += 1
        seen["redrawn"] += counted.attempts > 1
        seen["single_client"] += config.num_clients == 1
        if data.is_classification:
            labels = set(np.unique(data.targets).tolist())
            seen["label_absent"] += any(set(p.targets.tolist()) != labels for p in parts)
    # every kind of instance the old code handled shows up often enough
    assert seen["classification"] >= 60 and seen["regression"] >= 60, seen
    assert seen["redrawn"] >= 15 and seen["failed"] >= 15, seen
    assert seen["label_absent"] >= 30 and seen["single_client"] >= 1, seen


def test_budgets_are_bit_identical_to_reference():
    for instance in range(300):
        rng = np.random.default_rng(instance)
        eps = np.sort(10 ** rng.uniform(-2, 1, 2))
        if rng.random() < 0.2:
            deltas = (0.0, 0.0)
        else:
            deltas = tuple(np.sort(10 ** rng.uniform(-8, -1, 2)))
        config = BudgetSamplingConfig(tuple(eps), deltas, int(rng.integers(2**31)))
        num_clients = int(rng.integers(1, 301))
        got = sample_budgets(num_clients, *config)
        want = _reference_budgets(config, num_clients)
        assert len(want) == num_clients
        for field in ("epsilon", "delta", "epsilon_remaining", "delta_remaining"):
            column = getattr(got, field)
            assert column.dtype == np.float64 and not column.flags.writeable, instance
            assert column.tolist() == [getattr(w, field) for w in want], instance
        assert got.exhausted.tolist() == [w.exhausted for w in want] == [False] * num_clients
