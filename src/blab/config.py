"""Flat `key = value` config files with bracketed sections.

Sections map onto the experiment config: [dataset], [network], [train],
[experiment]. Unknown sections or keys are errors so typos
never silently fall back to defaults. CLI overrides beat file values.
"""

from __future__ import annotations

import configparser
from dataclasses import fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .data import ConfigError, DataError, read_utf8
from .experiments import DatasetSpec, ExperimentConfig
from .nn import TrainConfig


def _keys(cls, exclude=()) -> dict:
    """Field name -> type hint, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in exclude}


_NESTED = ("dataset", "train")
_EXPERIMENT = _keys(ExperimentConfig, exclude=_NESTED)
# section -> key -> type hint, in file order; dims gets a section of its own
_SCHEMA = {
    "dataset": _keys(DatasetSpec),
    "network": {"dims": _EXPERIMENT.pop("dims")},
    "train": _keys(TrainConfig),
    "experiment": _EXPERIMENT,
}


def _target(cfg: ExperimentConfig, section: str):
    return getattr(cfg, section) if section in _NESTED else cfg


def _parse_value(hint, text: str):
    """Comma lists for list hints; an empty value clears an optional key."""
    if isinstance(hint, UnionType):
        inner = next(a for a in get_args(hint) if a is not type(None))
        return _parse_value(inner, text) if text.strip() else None
    if get_origin(hint) is list:
        item = get_args(hint)[0]
        return [item(v) for v in text.replace(" ", "").split(",") if v]
    return hint(text)


def _format_value(value) -> str:
    return ",".join(str(v) for v in value) if isinstance(value, list) else str(value)


def parse_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a config file and apply `section.key -> value` overrides."""
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

    cfg = ExperimentConfig()
    items: list[tuple[str, str, str]] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            items.append((section, key, value))
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must be section.key")
        section, key = dotted.split(".", 1)
        items.append((section, key, value))

    for section, key, value in items:
        if key not in _SCHEMA.get(section, ()):
            raise ConfigError(f"unknown config key {section}.{key}")
        try:
            setattr(_target(cfg, section), key, _parse_value(_SCHEMA[section][key], value))
        except ValueError as e:
            raise ConfigError(f"bad value for {section}.{key}: {value!r}") from e
    cfg.validate()
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """The resolved config as a file parse_config reads back; unset optional keys are left out."""
    blocks = []
    for section, keys in _SCHEMA.items():
        target = _target(cfg, section)
        lines = [f"[{section}]"]
        lines += [f"{key} = {_format_value(getattr(target, key))}"
                  for key in keys if getattr(target, key) is not None]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
