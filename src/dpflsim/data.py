"""Datasets: synthetic generators, CSV ingestion, non-IID partitioning, and
privacy-budget sampling.

The generators, the partition and the budget sampler take plain values that
`ExperimentConfig.validate` has checked, and do not check them again. What
they still refuse depends on the data: an unreadable CSV file, class centers
that cannot be drawn apart, a partition that leaves a client without rows."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .mechanisms import PrivacyBudget
from .selection import largest_remainder_round

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


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
        # integer targets are finite by their dtype; float ones are tested
        # in place (astype copies only another dtype)
        if (targets.dtype.kind not in "iu"
                and not np.isfinite(targets.astype(float, copy=False)).all()):
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
        """The rows at `indices`, an array of row numbers: a boolean mask or
        float indices raise ParameterError instead of being read as row numbers."""
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu" and indices.size:
            raise ParameterError(f"subset indices must be integer row numbers, "
                                 f"got dtype {indices.dtype}")
        indices = indices.astype(int, copy=False)
        return Dataset(self.features.take(indices, axis=0), self.targets.take(indices))


def generate_synthetic_regression(num_samples: int, feature_dim: int, noise_std: float,
                                  seed: int) -> tuple[Dataset, np.ndarray]:
    """Standard-normal features, targets = features . w* + N(0, noise_std^2).

    Returns the dataset and the true weight vector w* for oracle evaluation.
    """
    rng = np.random.default_rng(seed)
    true_weights = rng.standard_normal(feature_dim)
    features = rng.standard_normal((num_samples, feature_dim))
    targets = features @ true_weights
    # the same draw and the same two operations as
    # features @ w + noise_std * noise, with two row-sized temporaries fewer
    noise = rng.standard_normal(num_samples)
    noise *= noise_std
    targets += noise
    return Dataset(features, targets), true_weights


def generate_synthetic_classification(num_samples: int, num_classes: int, feature_dim: int,
                                      class_separation: float, seed: int) -> Dataset:
    """Unit-variance Gaussian blobs in random directions, rescaled so the two
    closest class centers lie exactly class_separation apart. Labels are
    balanced within one sample and shuffled."""
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
    # the centers added in place to the drawn normals: IEEE addition
    # commutes, so the bits are those of centers + normals, with one
    # block-sized temporary fewer
    features = rng.standard_normal((num_samples, feature_dim))
    features += centers.take(labels, axis=0)
    return Dataset(features, labels.astype(int))


def dirichlet_partition(dataset: Dataset, num_clients: int, alpha: float,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a dataset across `num_clients` clients with Dirichlet(alpha) skew.

    Classification: per-label client shares are Dirichlet-distributed (label
    skew). Regression: client sizes are Dirichlet-distributed over shuffled
    rows (quantity skew). Redraws up to 100 times until every client has at
    least one sample; an attempt that leaves a client empty is decided from
    its rounded counts, before any row is assigned. Returns `(rows,
    num_samples)`, both read-only: `rows` is every row number of `dataset`
    once, client 0's first and each client's in ascending order, and
    `num_samples` each client's row count, so client n owns the rows
    `rows[row_start[n]:row_start[n] + num_samples[n]]`, where `row_start[n]`
    is the sum of the counts before n. The rows themselves are not copied.
    """
    if dataset.num_samples < num_clients:
        raise ParameterError(f"{dataset.num_samples} rows cannot give each of "
                             f"{num_clients} clients a sample")
    rng = np.random.default_rng(seed)
    alpha_vec = np.full(num_clients, alpha)
    if dataset.is_classification:
        groups = [np.flatnonzero(dataset.targets == label)
                  for label in np.unique(dataset.targets)]
    else:
        # every row: rng.permutation(n) shuffles np.arange(n) as it would
        # shuffle a copy of it, without holding the uncopied one
        groups = [dataset.num_samples]
    for _ in range(100):
        draws = []
        for group in groups:
            # a shuffled copy: the same draw as group[rng.permutation(len(group))]
            # with one row-sized temporary fewer (measured: lower peak RSS)
            idx = rng.permutation(group)
            draws.append((idx, largest_remainder_round(rng.dirichlet(alpha_vec) * len(idx),
                                                       len(idx))))
        sizes = sum(counts for _, counts in draws)
        if sizes.min() >= 1:
            # the narrowest dtype makes the stable argsort below a radix sort
            client_ids = np.arange(num_clients, dtype=np.min_scalar_type(num_clients))
            owner = np.empty(dataset.num_samples, dtype=client_ids.dtype)
            for idx, counts in draws:
                owner[idx] = np.repeat(client_ids, counts)
            rows = np.argsort(owner, kind="stable")
            rows.flags.writeable = sizes.flags.writeable = False
            return rows, sizes
    raise ParameterError(
        f"could not give every one of {num_clients} clients a sample in 100 attempts; "
        "the dataset is too small or alpha too extreme")


def sample_budgets(num_clients: int, epsilon_range: tuple, delta_range: tuple,
                   seed: int) -> PrivacyBudget:
    """Fresh per-client budgets as one `PrivacyBudget` whose fields are
    read-only columns, one entry per client: epsilon and delta i.i.d. uniform
    over their (low, high) ranges."""
    rng = np.random.default_rng(seed)
    eps_lo, eps_hi = epsilon_range
    d_lo, d_hi = delta_range
    epsilons = rng.uniform(eps_lo, eps_hi, num_clients)
    deltas = rng.uniform(d_lo, d_hi, num_clients) if d_hi > 0 else np.zeros(num_clients)
    # read-only, so the total and the remaining budget may share one array
    epsilons.flags.writeable = False
    deltas.flags.writeable = False
    return PrivacyBudget(epsilons, deltas, epsilons, deltas)


def ingest_csv(path, target_column: str, feature_columns: list,
               standardize: bool = True) -> tuple[Dataset, int]:
    """Load a regression dataset from a headered CSV file.

    Rows with missing cells (empty/NA/NaN/null) in any used column are dropped
    and counted; rows with unparseable numbers fail with their line numbers.
    Standardization maps each feature to zero mean and unit variance, with
    zero-variance columns mapped to all zeros. Returns (dataset, dropped).
    """
    feature_columns = list(feature_columns)
    rows = []
    dropped = 0
    bad_lines = []
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read CSV file {path}: {exc}") from exc
    reader = csv.DictReader(lines)
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
