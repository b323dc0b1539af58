"""The config format: flat `key = value` files with bracketed sections.

This module owns the sections ([dataset], [network], [train], [experiment]),
their keys, the value text, the `--set SECTION.KEY=VALUE` overrides and the
`show-config` text that a manifest also stores. Unknown sections or keys are
errors so typos never silently fall back to defaults. Overrides beat file values.
A config is immutable and checked once, when it is made: a ConfigError from
its constructor, so `dataclasses.replace` checks the new values again and
code that takes a config never re-checks it.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import LAYOUT_KINDS, ConfigError, DataError, read_utf8
from .nn import TrainConfig, check_finite_fields, check_layer_dims

DATASET_SOURCES = ("blobs", "idx", "csv", "symmetric")
DATASET_PATH_KEYS = {"idx": ("images_path", "labels_path"), "csv": ("csv_path",)}


@dataclass(frozen=True)
class DatasetSpec:
    source: str = "blobs"  # one of DATASET_SOURCES
    seed: int = 0
    # blobs
    dim: int = 2
    per_class: int = 50
    center_distance: float = 4.0
    sigma: float = 0.5
    # idx
    images_path: str = ""
    labels_path: str = ""
    class_a: int = 3
    class_b: int = 5
    subset: int = 0  # 0 keeps everything
    # csv
    csv_path: str = ""
    # symmetric
    layout_kind: str = "square_xor"

    def __post_init__(self):
        check_finite_fields(self)
        if self.source not in DATASET_SOURCES:
            raise ConfigError(f"unknown dataset source {self.source!r}; "
                              f"choose from {', '.join(DATASET_SOURCES)}")
        if self.layout_kind not in LAYOUT_KINDS:
            raise ConfigError(f"unknown dataset layout_kind {self.layout_kind!r}; "
                              f"choose from {', '.join(LAYOUT_KINDS)}")
        if not 0 <= self.seed < 2**63:  # make_rng keys Philox exactly only below 2**63
            raise ConfigError(f"dataset seed must be in [0, 2**63), got {self.seed}")
        if self.dim < 1:
            raise ConfigError("dataset dim must be >= 1")
        if self.per_class < 1:
            raise ConfigError("dataset per_class must be >= 1")
        if 2 * self.per_class * self.dim * 8 > sys.maxsize:  # numpy's most for the blobs' array
            raise ConfigError(f"dataset per_class and dim must give at most {sys.maxsize} bytes "
                              f"of samples, got per_class {self.per_class}, dim {self.dim}")
        if self.sigma <= 0:
            raise ConfigError("dataset sigma must be positive")
        if self.subset < 0 or self.subset % 2:
            raise ConfigError("dataset subset must be even and >= 0 (0 keeps everything)")
        if self.class_a == self.class_b:
            raise ConfigError("dataset class_a and class_b must differ")
        for key in DATASET_PATH_KEYS.get(self.source, ()):
            if not getattr(self, key):
                raise ConfigError(f"dataset source {self.source} needs dataset.{key}")


def check_kappa(kappa: float) -> None:
    if not kappa > 0:
        raise ConfigError(f"kappa must be positive (an overshoot crosses the boundary "
                          f"only for kappa > 0), got {kappa!r}")


def check_master_seed(seed: int, name: str) -> None:
    """derive_seed hashes a seed's low 64 bits: one outside [0, 2**64) would replay one inside."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    dims: list[int] = field(default_factory=lambda: [2, 16, 16, 2])
    train: TrainConfig = field(default_factory=TrainConfig)
    iterations: int = 5
    master_seed: int = 0
    kappa: float = 0.1
    dims_b: list[int] | None = None  # second architecture (cross-model transfer)

    def __post_init__(self):
        check_finite_fields(self)
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        check_layer_dims(self.dims)
        if self.dims_b is not None:
            check_layer_dims(self.dims_b)
        check_master_seed(self.master_seed, "experiment.master_seed")
        check_kappa(self.kappa)


def _int_list(text: str) -> list[int]:
    """A comma list: spaces dropped, empty items skipped."""
    return [int(v) for v in text.replace(" ", "").split(",") if v]


# a field's annotation, as text under `from __future__ import annotations` -> its value
# parser; an empty value clears an optional list
_PARSERS = {"str": str, "int": int, "float": float, "list[int]": _int_list,
            "list[int] | None": lambda text: _int_list(text) if text.strip() else None}


def _keys(cls, exclude=()) -> dict:
    """Field name -> value parser, in declaration order; a KeyError at import
    for an annotation with no parser, so a new spelling never parses wrong."""
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in exclude}


_NESTED = ("dataset", "train")
_EXPERIMENT = _keys(ExperimentConfig, exclude=_NESTED)
# section -> key -> value parser, in file order; dims gets a section of its own
CONFIG_SCHEMA = {
    "dataset": _keys(DatasetSpec),
    "network": {"dims": _EXPERIMENT.pop("dims")},
    "train": _keys(TrainConfig),
    "experiment": _EXPERIMENT,
}


def _target(cfg: ExperimentConfig, section: str):
    return getattr(cfg, section) if section in _NESTED else cfg


def _format_value(value) -> str:
    return ",".join(str(v) for v in value) if isinstance(value, list) else str(value)


def config_from_items(items) -> ExperimentConfig:
    """The defaults with `(section, key, text)` triples applied in order: each
    value is parsed as it comes, and the config is checked once, when it is
    made ([dataset], then [train], then [network] and [experiment])."""
    values = {section: {} for section in CONFIG_SCHEMA}
    for section, key, text in items:
        if key not in CONFIG_SCHEMA.get(section, ()):
            raise ConfigError(f"unknown config key {section}.{key}")
        try:
            values[section][key] = CONFIG_SCHEMA[section][key](text)
        except ValueError as e:
            raise ConfigError(f"bad value for {section}.{key}: {text!r}") from e
    return ExperimentConfig(dataset=DatasetSpec(**values["dataset"]),
                            train=TrainConfig(**values["train"]),
                            **values["network"], **values["experiment"])


def config_sections(cfg: ExperimentConfig) -> dict[str, dict[str, str]]:
    """Section -> key -> text, as show-config prints it; unset optional keys are left out."""
    return {section: {key: _format_value(getattr(_target(cfg, section), key))
                      for key in keys if getattr(_target(cfg, section), key) is not None}
            for section, keys in CONFIG_SCHEMA.items()}


def parse_config(path, sets=()) -> ExperimentConfig:
    """Read a config file and apply `SECTION.KEY=VALUE` strings over it, key and
    value stripped. A key set twice keeps its first place and takes its last value."""
    overrides = {}
    for item in sets:
        key, equals, value = item.partition("=")
        if not equals:
            raise ConfigError(f"override {item!r} must be section.key=value")
        overrides[key.strip()] = value.strip()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_utf8(path), source=str(path))
    except DataError as e:
        raise ConfigError(f"cannot parse config: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e

    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    items = [(section, *item) for section in parser.sections() for item in parser.items(section)]
    for dotted, value in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must be section.key")
        items.append((*dotted.split(".", 1), value))
    return config_from_items(items)


def serialize_config(cfg: ExperimentConfig) -> str:
    """The resolved config as a file parse_config reads back; unset optional keys are left out."""
    blocks = ["\n".join([f"[{section}]", *(f"{key} = {text}" for key, text in keys.items())])
              for section, keys in config_sections(cfg).items()]
    return "\n\n".join(blocks) + "\n"
