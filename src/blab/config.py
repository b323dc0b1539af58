"""Flat `key = value` config files with bracketed sections.

Sections map onto the experiment config: [dataset], [network], [train],
[experiment]. Unknown sections or keys are errors so typos
never silently fall back to defaults. CLI overrides beat file values.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .data import ConfigError, DataError, read_utf8
from .experiments import CONFIG_SCHEMA, ExperimentConfig, config_from_items, config_sections


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

    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    items = [(section, *item) for section in parser.sections() for item in parser.items(section)]
    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must be section.key")
        items.append((*dotted.split(".", 1), value))
    return config_from_items(items)


def serialize_config(cfg: ExperimentConfig) -> str:
    """The resolved config as a file parse_config reads back; unset optional keys are left out."""
    blocks = ["\n".join([f"[{section}]", *(f"{key} = {text}" for key, text in keys.items())])
              for section, keys in config_sections(cfg).items()]
    return "\n\n".join(blocks) + "\n"
