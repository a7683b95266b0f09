"""Config validation and parsing: each refusal names the field or line at fault."""

import dataclasses
import math
import re

import pytest

from dpflsim.config import (
    ExperimentConfig,
    apply_overrides,
    config_from_mapping,
    parse_config_file,
)
from dpflsim.errors import ConfigError

CSV = dict(dataset="csv", csv_path="data.csv", csv_target_column="y",
           csv_feature_columns="x1,x2")

# (id, field named, overrides of the defaults, fragment of the message): one
# case per refusal of `ExperimentConfig.validate`. Each case carries its own
# id, so adding or reordering cases renames no other; the ids are unique.
REFUSALS = [
    ("clip_bound-clip_bound", "clip_bound", dict(clip_bound=math.inf),
     "clip_bound must be finite, got inf"),
    ("clip_bound-mechanism-delta_min-delta_max-clip_bound", "clip_bound",
     dict(mechanism="laplace", delta_min=0.0, delta_max=0.0, clip_bound=1e-310),
     "clip_bound must be at least the smallest normal float 2.2250738585072014e-308"),
    ("algorithm-algorithm", "algorithm", dict(algorithm="sgd"), "algorithm must be one of"),
    ("estimation_rounds-estimation_rounds0", "estimation_rounds",
     dict(estimation_rounds=200), "need 1 <= estimation_rounds < total"),
    ("estimation_rounds-estimation_rounds1", "estimation_rounds",
     dict(estimation_rounds=1), "must be >= 2 for algorithm dpfl_bcs"),
    ("mechanism-mechanism", "mechanism", dict(mechanism="gauss"), "mechanism must be one of"),
    ("dataset-dataset", "dataset", dict(dataset="mnist"), "dataset must be one of"),
    ("num_clients-num_clients", "num_clients", dict(num_clients=0),
     "num_clients must be >= 1"),
    ("clients_per_round-clients_per_round", "clients_per_round",
     dict(clients_per_round=101), "clients_per_round=101"),
    ("lr_initial-lr_initial", "lr_initial", dict(lr_initial=0.0),
     "lr_initial must be positive"),
    ("loss_cap-loss_cap", "loss_cap", dict(loss_cap=-2.0),
     "loss_cap must be nonnegative or 'auto'"),
    # -1.0 is a negative cap, not "auto"
    ("loss_cap-loss_cap1", "loss_cap", dict(loss_cap=-1.0),
     "loss_cap must be nonnegative or 'auto', got -1.0"),
    ("epsilon_min-epsilon_min0", "epsilon_min", dict(epsilon_min=4.0),
     "need 0 < epsilon_min <= epsilon_max"),
    ("epsilon_min-epsilon_min1", "epsilon_min", dict(epsilon_min=1e-16),
     "epsilon_min=1e-16 is too small"),
    ("delta_min-delta_min0", "delta_min", dict(delta_min=2e-4),
     "need 0 <= delta_min <= delta_max < 1"),
    ("delta_max-delta_max", "delta_max", dict(delta_max=1.0), "delta_max=1.0"),
    ("delta_max-mechanism", "delta_max", dict(mechanism="laplace"),
     "mechanism laplace requires delta_min = delta_max"),
    ("delta_min-delta_min1", "delta_min", dict(delta_min=0.0),
     "mechanism gaussian requires delta_min > 0"),
    ("num_samples-num_samples", "num_samples", dict(num_samples=0),
     "num_samples must be >= 1"),
    ("test_samples-test_samples", "test_samples", dict(test_samples=0),
     "test_samples must be >= 1"),
    ("feature_dim-feature_dim", "feature_dim", dict(feature_dim=0),
     "feature_dim must be >= 1"),
    ("target_noise_std-target_noise_std", "target_noise_std", dict(target_noise_std=-0.1),
     "target_noise_std must be nonnegative"),
    ("num_classes-dataset-num_classes", "num_classes",
     dict(dataset="synthetic_classification", num_classes=1), "num_classes must be >= 2"),
    ("class_separation-dataset-class_separation", "class_separation",
     dict(dataset="synthetic_classification", class_separation=-1.0),
     "class_separation must be nonnegative"),
    ("num_classes-dataset-num_classes-num_samples-test_samples", "num_classes",
     dict(dataset="synthetic_classification", num_classes=6, num_samples=3, test_samples=2),
     "exceeds num_samples + test_samples = 5"),
    ("csv_path-dataset-csv_path-csv_target_column-csv_feature_columns", "csv_path",
     dict(CSV, csv_path=""), "dataset csv requires csv_path"),
    ("csv_target_column-dataset-csv_path-csv_target_column-csv_feature_columns",
     "csv_target_column", dict(CSV, csv_target_column=""),
     "dataset csv requires csv_target_column"),
    ("csv_feature_columns-dataset-csv_path-csv_target_column-csv_feature_columns",
     "csv_feature_columns", dict(CSV, csv_feature_columns=""),
     "dataset csv requires csv_feature_columns"),
    ("csv_feature_columns-csv_feature_columns-dataset-csv_path-csv_target_column",
     "csv_feature_columns", dict(CSV, csv_feature_columns=","), "got ','"),
    ("test_fraction-dataset-csv_path-csv_target_column-csv_feature_columns-test_fraction",
     "test_fraction", dict(CSV, test_fraction=1.0), "test_fraction must lie in (0, 1)"),
    ("seed-seed", "seed", dict(seed=-1), "seed must be nonnegative"),
    ("num_clients-num_samples", "num_clients", dict(num_samples=99),
     "num_clients=100 exceeds num_samples=99"),
]


@pytest.mark.parametrize("field, overrides, fragment",
                         [pytest.param(*case, id=id_) for id_, *case in REFUSALS])
def test_validate_refusal_names_the_field(field, overrides, fragment):
    config = ExperimentConfig(**overrides)
    with pytest.raises(ConfigError) as err:
        config.validate()
    message = str(err.value)
    assert fragment in message and field in message


def test_refusal_cases_start_from_valid_configs():
    # the defaults and the CSV fields alone validate, so each case above
    # fails on the one refusal it names
    ExperimentConfig().validate()
    ExperimentConfig(**CSV).validate()
    assert len({fragment for *_, fragment in REFUSALS}) == len(REFUSALS)
    assert len({id_ for id_, *_ in REFUSALS}) == len(REFUSALS)


def test_config_file_refuses_a_line_without_equals(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\n\nseed = 3\nnum_clients 10\n")
    message = f"{path}:4: expected 'key = value', got 'num_clients 10'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_file(path)
    # comments and blank lines are skipped
    path.write_text("# comment\n\nseed = 3  # trailing\n")
    assert parse_config_file(path) == {"seed": "3"}


def test_override_must_be_key_equals_value():
    with pytest.raises(ConfigError, match=r"^override 'seed' is not of the form key=value$"):
        apply_overrides({}, ["seed"])
    assert apply_overrides({"seed": "1"}, [" seed = 2 "]) == {"seed": "2"}


@pytest.mark.parametrize("mapping, message", [
    ({"zero_noise": "maybe"}, "zero_noise: expected a boolean, got 'maybe'"),
    ({"num_clients": "ten"}, "num_clients: cannot parse 'ten' as int"),
    ({"clip_bound": "wide"}, "clip_bound: cannot parse 'wide' as float"),
])
def test_config_values_that_do_not_parse_name_their_key(mapping, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_mapping(mapping)


def test_laplace_defaults_its_delta_range_to_zero_unless_set():
    config = config_from_mapping({"mechanism": "laplace"})
    assert (config.delta_min, config.delta_max) == (0.0, 0.0)
    config.validate()
    # a delta the user set is kept, and validation then refuses it
    config = config_from_mapping({"mechanism": "laplace", "delta_max": "1e-4"})
    assert (config.delta_min, config.delta_max) == (1e-5, 1e-4)
    with pytest.raises(ConfigError, match="mechanism laplace requires"):
        config.validate()
    # gaussian keeps the defaults
    assert config_from_mapping({}) == ExperimentConfig()


def test_loss_cap_auto_resolves_by_dataset():
    config = config_from_mapping({"loss_cap": "auto"})
    assert config == ExperimentConfig() and config.resolved_loss_cap() == 10.0
    classification = dataclasses.replace(config, dataset="synthetic_classification",
                                         num_classes=4)
    assert classification.resolved_loss_cap() == math.log(4)
