"""Datasets: synthetic generators, CSV ingestion, non-IID partitioning, and
privacy-budget sampling."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .mechanisms import PrivacyBudget
from .selection import largest_remainder_round

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


def _unchecked(cls, rows) -> list:
    """Instances of the frozen dataclass `cls`, one per tuple of field values
    in `rows`, built without `__post_init__`: for the parts of an input that
    was checked as a whole. Fields are set one by one in declaration order, as
    `__init__` sets them, so the instances keep CPython's shared-key dicts."""
    names = tuple(cls.__dataclass_fields__)
    new, set_field = object.__new__, object.__setattr__
    out = []
    for values in rows:
        obj = new(cls)
        for name, value in zip(names, values):
            set_field(obj, name, value)
        out.append(obj)
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus targets; integer targets mean classification."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        if features.ndim != 2:
            raise ParameterError(f"features must be 2-d, got shape {features.shape}")
        if targets.ndim != 1 or len(targets) != len(features):
            raise ParameterError("targets must be 1-d and match the feature rows")
        if len(features) < 1:
            raise ParameterError("dataset must hold at least one sample")
        if not np.isfinite(features).all():
            raise ParameterError("features must be finite")
        if not np.isfinite(targets.astype(float)).all():
            raise ParameterError("targets must be finite")

    @property
    def num_samples(self) -> int:
        return len(self.targets)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def is_classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.features[indices], self.targets[indices])

    def split(self, order, sizes) -> list:
        """One dataset per entry of `sizes`: the rows `order` gathered once
        into a read-only block, then cut into consecutive row slices of those
        sizes. Each slice is a view of the block, and, as rows of this checked
        dataset, is not checked again."""
        sizes = np.asarray(sizes, dtype=int)
        if sizes.ndim != 1 or len(sizes) == 0 or sizes.min() < 1:
            raise ParameterError("every part must hold at least one sample")
        if sizes.sum() != len(order):
            raise ParameterError(
                f"part sizes sum to {sizes.sum()}, but {len(order)} rows are given")
        features = self.features[order]
        targets = self.targets[order]
        features.flags.writeable = False
        targets.flags.writeable = False
        ends = np.cumsum(sizes).tolist()
        return _unchecked(Dataset, ((features[start:end], targets[start:end])
                                    for start, end in zip([0] + ends[:-1], ends)))


@dataclass(frozen=True)
class PartitionConfig:
    num_clients: int
    dirichlet_alpha: float
    seed: int

    def __post_init__(self):
        if self.num_clients < 1:
            raise ParameterError("num_clients must be >= 1")
        if not (math.isfinite(self.dirichlet_alpha) and self.dirichlet_alpha > 0):
            raise ParameterError("dirichlet_alpha must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


@dataclass(frozen=True)
class BudgetSamplingConfig:
    epsilon_range: tuple
    delta_range: tuple
    seed: int

    def __post_init__(self):
        lo, hi = self.epsilon_range
        if not (0 < lo <= hi):
            raise ParameterError(f"need 0 < epsilon_min <= epsilon_max, got [{lo}, {hi}]")
        dlo, dhi = self.delta_range
        if not (0 <= dlo <= dhi < 1):
            raise ParameterError(f"need 0 <= delta_min <= delta_max < 1, got [{dlo}, {dhi}]")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


def generate_synthetic_regression(num_samples: int, feature_dim: int, noise_std: float,
                                  seed: int) -> tuple[Dataset, np.ndarray]:
    """Standard-normal features, targets = features . w* + N(0, noise_std^2).

    Returns the dataset and the true weight vector w* for oracle evaluation.
    """
    if feature_dim < 1:
        raise ParameterError("feature_dim must be >= 1")
    if num_samples < 1:
        raise ParameterError("num_samples must be >= 1")
    if noise_std < 0:
        raise ParameterError("noise_std must be nonnegative")
    rng = np.random.default_rng(seed)
    true_weights = rng.standard_normal(feature_dim)
    features = rng.standard_normal((num_samples, feature_dim))
    targets = features @ true_weights + noise_std * rng.standard_normal(num_samples)
    return Dataset(features, targets), true_weights


def generate_synthetic_classification(num_samples: int, num_classes: int, feature_dim: int,
                                      class_separation: float, seed: int) -> Dataset:
    """Unit-variance Gaussian blobs in random directions, rescaled so the two
    closest class centers lie exactly class_separation apart. Labels are
    balanced within one sample and shuffled."""
    if num_classes < 2:
        raise ParameterError("num_classes must be >= 2")
    if feature_dim < 1:
        raise ParameterError("feature_dim must be >= 1")
    if num_samples < num_classes:
        raise ParameterError("need at least one sample per class")
    if class_separation < 0:
        raise ParameterError("class_separation must be nonnegative")
    rng = np.random.default_rng(seed)
    centers = np.zeros((num_classes, feature_dim))
    if class_separation > 0:
        # scale random centers so the closest pair sits exactly
        # class_separation apart
        for _ in range(100):
            raw = rng.standard_normal((num_classes, feature_dim))
            diffs = raw[:, None, :] - raw[None, :, :]
            dist = np.linalg.norm(diffs, axis=2)
            min_dist = dist[np.triu_indices(num_classes, k=1)].min()
            if min_dist > 1e-9:
                centers = raw * (class_separation / min_dist)
                break
        else:
            raise ParameterError("could not draw distinct class centers")
    counts = largest_remainder_round(
        np.full(num_classes, num_samples / num_classes), num_samples)
    labels = np.repeat(np.arange(num_classes), counts)
    labels = labels[rng.permutation(num_samples)]
    features = centers[labels] + rng.standard_normal((num_samples, feature_dim))
    return Dataset(features, labels.astype(int))


def dirichlet_partition(dataset: Dataset, config: PartitionConfig) -> list:
    """Split a dataset across clients with Dirichlet(alpha) skew.

    Classification: per-label client shares are Dirichlet-distributed (label
    skew). Regression: client sizes are Dirichlet-distributed over shuffled
    rows (quantity skew). Redraws up to 100 times until every client has at
    least one sample. Each client holds its rows in ascending order, as
    read-only views of one gathered block (`Dataset.split`).
    """
    n_clients = config.num_clients
    rng = np.random.default_rng(config.seed)
    alpha_vec = np.full(n_clients, config.dirichlet_alpha)
    # the narrowest dtype makes the stable argsort below a radix sort
    client_ids = np.arange(n_clients, dtype=np.min_scalar_type(n_clients))
    owner = np.empty(dataset.num_samples, dtype=client_ids.dtype)
    if dataset.is_classification:
        groups = [np.flatnonzero(dataset.targets == label)
                  for label in np.unique(dataset.targets)]
    else:
        groups = [np.arange(dataset.num_samples)]
    for _ in range(100):
        for group in groups:
            # a shuffled copy: the same draw as group[rng.permutation(len(group))]
            # with one row-sized temporary fewer (measured: lower peak RSS)
            idx = rng.permutation(group)
            counts = largest_remainder_round(rng.dirichlet(alpha_vec) * len(idx), len(idx))
            owner[idx] = np.repeat(client_ids, counts)
        sizes = np.bincount(owner, minlength=n_clients)
        if sizes.min() >= 1:
            return dataset.split(np.argsort(owner, kind="stable"), sizes)
    raise ParameterError(
        f"could not give every one of {n_clients} clients a sample in 100 attempts; "
        "the dataset is too small or alpha too extreme")


def sample_budgets(config: BudgetSamplingConfig, num_clients: int) -> list:
    """Per-client budgets: epsilon and delta i.i.d. uniform over their ranges."""
    if num_clients < 1:
        raise ParameterError("num_clients must be >= 1")
    rng = np.random.default_rng(config.seed)
    eps_lo, eps_hi = config.epsilon_range
    d_lo, d_hi = config.delta_range
    epsilons = rng.uniform(eps_lo, eps_hi, num_clients)
    deltas = rng.uniform(d_lo, d_hi, num_clients) if d_hi > 0 else np.zeros(num_clients)
    # one check for every client, then fresh scalar budgets of Python floats
    PrivacyBudget(epsilons, deltas, epsilons, deltas)
    epsilons, deltas = epsilons.tolist(), deltas.tolist()
    return _unchecked(PrivacyBudget, zip(epsilons, deltas, epsilons, deltas))


def ingest_csv(path, target_column: str, feature_columns: list,
               standardize: bool = True) -> tuple[Dataset, int]:
    """Load a regression dataset from a headered CSV file.

    Rows with missing cells (empty/NA/NaN/null) in any used column are dropped
    and counted; rows with unparseable numbers fail with their line numbers.
    Standardization maps each feature to zero mean and unit variance, with
    zero-variance columns mapped to all zeros. Returns (dataset, dropped).
    """
    feature_columns = list(feature_columns)
    if not feature_columns:
        raise ParameterError("feature_columns must be nonempty")
    rows = []
    dropped = 0
    bad_lines = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing_cols = [c for c in [target_column, *feature_columns] if c not in header]
        if missing_cols:
            raise ParameterError(f"columns not found in {path}: {', '.join(missing_cols)}")
        for line_no, row in enumerate(reader, start=2):
            cells = [row.get(c) for c in [target_column, *feature_columns]]
            if any(c is None or c.strip().lower() in _MISSING_TOKENS for c in cells):
                dropped += 1
                continue
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                bad_lines.append(line_no)
    if bad_lines:
        raise ParameterError(
            f"unparseable numeric values at line(s) {', '.join(map(str, bad_lines))} of {path}")
    if not rows:
        raise ParameterError(f"no usable rows in {path} ({dropped} dropped)")
    arr = np.asarray(rows, dtype=float)
    targets, features = arr[:, 0], arr[:, 1:]
    if standardize:
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        safe = np.where(std > 0, std, 1.0)
        features = (features - mean) / safe
        features[:, std == 0] = 0.0
    return Dataset(features, targets), dropped
