"""Experiment configuration: a flat key = value text format with defaults
mirroring the reference system settings (N=100, K=20, T=200, T0=10), override
flags, validation with field-level messages, and reproducible snapshots."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

from .engine import ALGORITHMS
from .errors import ConfigError
from .mechanisms import MechanismKind, exhaustion_floor

MECHANISM_CHOICES = tuple(kind.value for kind in MechanismKind)
DATASET_CHOICES = ("synthetic_regression", "synthetic_classification", "csv")


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "dpfl_bcs"
    mechanism: str = "gaussian"
    num_clients: int = 100
    clients_per_round: int = 20
    total_rounds: int = 200
    estimation_rounds: int = 10
    clip_bound: float = 1.0
    # "auto", the literal the config text takes too: ln(num_classes) for
    # classification (the capped loss of a uniform guess), 10.0 for regression
    loss_cap: float | str = "auto"
    c2: float = 1.0
    lr_initial: float = 0.05
    lr_decay_horizon: float = 200.0
    zero_noise: bool = False
    force_uniform_plan: bool = False
    dirichlet_alpha: float = 3.0
    epsilon_min: float = 0.5
    epsilon_max: float = 3.0
    delta_min: float = 1e-5
    delta_max: float = 1e-4
    dataset: str = "synthetic_regression"
    num_samples: int = 2000
    test_samples: int = 500
    feature_dim: int = 5
    target_noise_std: float = 0.1
    num_classes: int = 10
    class_separation: float = 3.0
    csv_path: str = ""
    csv_target_column: str = ""
    csv_feature_columns: str = ""
    csv_standardize: bool = True
    test_fraction: float = 0.2
    seed: int = 0
    output_dir: str = "runs/out"

    def resolved_loss_cap(self) -> float:
        if self.loss_cap != "auto":
            return self.loss_cap
        if self.dataset == "synthetic_classification":
            return math.log(self.num_classes)
        return 10.0

    def validate(self) -> None:
        def fail(msg):
            raise ConfigError(msg)

        # NaN fails every comparison below, so it would pass the checks that
        # are written as `x < 0`; infinities overflow the run's arithmetic
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("float") and value != "auto" and not math.isfinite(value):
                fail(f"{f.name} must be finite, got {value}")
        if self.algorithm not in ALGORITHMS:
            fail(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.mechanism not in MECHANISM_CHOICES:
            fail(f"mechanism must be one of {MECHANISM_CHOICES}, got {self.mechanism!r}")
        if self.dataset not in DATASET_CHOICES:
            fail(f"dataset must be one of {DATASET_CHOICES}, got {self.dataset!r}")
        if self.num_clients < 1:
            fail(f"num_clients must be >= 1, got {self.num_clients}")
        if not 1 <= self.clients_per_round <= self.num_clients:
            fail(f"need 1 <= clients_per_round <= num_clients, got "
                 f"clients_per_round={self.clients_per_round}, num_clients={self.num_clients}")
        if not 1 <= self.estimation_rounds < self.total_rounds:
            fail(f"need 1 <= estimation_rounds < total_rounds, got "
                 f"estimation_rounds={self.estimation_rounds}, total_rounds={self.total_rounds}")
        if self.algorithm == "dpfl_bcs" and self.estimation_rounds < 2:
            fail(f"estimation_rounds must be >= 2 for algorithm dpfl_bcs "
                 f"(the skew estimator divides by estimation_rounds - 1), "
                 f"got estimation_rounds={self.estimation_rounds}")
        for name in ("clip_bound", "c2", "lr_initial", "lr_decay_horizon", "dirichlet_alpha"):
            if not getattr(self, name) > 0:
                fail(f"{name} must be positive, got {getattr(self, name)}")
        # at a subnormal bound a rescale's quotient keeps too few bits to land
        # a row inside the ball (`mechanisms._refine_clipped`)
        if self.clip_bound < sys.float_info.min:
            fail(f"clip_bound must be at least the smallest normal float "
                 f"{sys.float_info.min!r}, got {self.clip_bound!r}")
        if self.loss_cap != "auto" and self.loss_cap < 0:
            fail(f"loss_cap must be nonnegative or 'auto', got {self.loss_cap}")
        if not 0 < self.epsilon_min <= self.epsilon_max:
            fail(f"need 0 < epsilon_min <= epsilon_max, got "
                 f"epsilon_min={self.epsilon_min}, epsilon_max={self.epsilon_max}")
        # a plan gives a client at most K * T participations, so its smallest
        # slice is epsilon_min / (K * T); at or under the exhaustion floor, a
        # client runs out of budget before its plan does
        smallest = self.epsilon_min / (self.clients_per_round * self.total_rounds)
        floor = exhaustion_floor(self.epsilon_min)
        if smallest <= floor:
            fail(f"epsilon_min={self.epsilon_min} is too small: its smallest slice "
                 f"epsilon_min / (clients_per_round * total_rounds) = {smallest:.3g} "
                 f"is at or under the budget exhaustion floor {floor:.3g}")
        if not 0 <= self.delta_min <= self.delta_max < 1:
            fail(f"need 0 <= delta_min <= delta_max < 1, got "
                 f"delta_min={self.delta_min}, delta_max={self.delta_max}")
        if self.mechanism == "laplace" and self.delta_max != 0:
            fail("mechanism laplace requires delta_min = delta_max = 0 "
                 f"(got delta_min={self.delta_min}, delta_max={self.delta_max})")
        if self.mechanism == "gaussian" and self.delta_min <= 0:
            fail(f"mechanism gaussian requires delta_min > 0, got delta_min={self.delta_min}")
        if self.dataset != "csv":
            if self.num_samples < 1:
                fail(f"num_samples must be >= 1, got {self.num_samples}")
            if self.test_samples < 1:
                fail(f"test_samples must be >= 1, got {self.test_samples}")
            if self.feature_dim < 1:
                fail(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.dataset == "synthetic_regression" and self.target_noise_std < 0:
            fail(f"target_noise_std must be nonnegative, got {self.target_noise_std}")
        if self.dataset == "synthetic_classification":
            if self.num_classes < 2:
                fail(f"num_classes must be >= 2, got {self.num_classes}")
            if self.class_separation < 0:
                fail(f"class_separation must be nonnegative, got {self.class_separation}")
            if self.num_samples + self.test_samples < self.num_classes:
                fail(f"num_classes={self.num_classes} exceeds num_samples + test_samples = "
                     f"{self.num_samples + self.test_samples}: the generator draws at "
                     f"least one sample of each class")
        if self.dataset == "csv":
            if not self.csv_path:
                fail("dataset csv requires csv_path")
            if not self.csv_target_column:
                fail("dataset csv requires csv_target_column")
            if not self.feature_columns():
                fail(f"dataset csv requires csv_feature_columns (comma-separated names), "
                     f"got {self.csv_feature_columns!r}")
            if not 0 < self.test_fraction < 1:
                fail(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.seed < 0:
            fail(f"seed must be nonnegative, got {self.seed}")
        if self.dataset != "csv" and self.num_clients > self.num_samples:
            fail(f"num_clients={self.num_clients} exceeds num_samples={self.num_samples}: "
                 f"the partition gives every client at least one training row")

    def feature_columns(self) -> list:
        return [c.strip() for c in self.csv_feature_columns.split(",") if c.strip()]

    def snapshot_text(self) -> str:
        """Flat key = value dump of every resolved field; parses back losslessly."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "loss_cap":
                value = self.resolved_loss_cap()
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment; blank lines skipped."""
    mapping = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def apply_overrides(mapping: dict, overrides) -> dict:
    out = dict(mapping)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from string values, applying defaults for absent keys."""
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, raw in mapping.items():
        if key not in by_name:
            raise ConfigError(f"unknown config key {key!r}")
        # loss_cap's "float | str" parses as a float, but for "auto"
        ftype = by_name[key].type.removesuffix(" | str")
        try:
            if key == "loss_cap" and str(raw).strip().lower() == "auto":
                kwargs[key] = "auto"
            elif ftype == "bool":
                kwargs[key] = _parse_bool(key, str(raw))
            elif ftype == "int":
                kwargs[key] = int(str(raw).strip())
            elif ftype == "float":
                kwargs[key] = float(str(raw).strip())
            else:
                kwargs[key] = str(raw).strip()
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw!r} as {ftype}") from None
    cfg = ExperimentConfig(**kwargs)
    # Laplace runs default their delta range to [0, 0] unless the user set it.
    if cfg.mechanism == "laplace" and "delta_min" not in mapping and "delta_max" not in mapping:
        cfg = replace(cfg, delta_min=0.0, delta_max=0.0)
    return cfg


def load_config(path, overrides=None, seed=None, output_dir=None) -> ExperimentConfig:
    base = parse_config_file(path) if path is not None else {}
    mapping = apply_overrides(base, overrides)
    cfg = config_from_mapping(mapping)
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    if output_dir is not None:
        cfg = replace(cfg, output_dir=str(output_dir))
    cfg.validate()
    return cfg
