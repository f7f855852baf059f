"""JSON run configuration: parsing, validation, round-trip serialization.

Each section of the document is read into its dataclass by one reader
driven by the dataclass's fields: a missing key takes the field's default,
an unknown key is an error, and each value must have its field's type.
Range checks live in each dataclass's ``__post_init__``.
"""
from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_type_hints

from .dynamics import FluidParams
from .initial import InitSpec
from .stepping import TimeConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(kw_only=True)
class GridConfig:
    dim: int = 1
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.points_per_axis < 8 or self.points_per_axis % 2:
            raise ValueError("points_per_axis must be even and >= 8")


@dataclass
class OutputConfig:
    records_path: str = "records.csv"
    snapshots_path: str | None = None
    snapshot_every: int | None = None

    def __post_init__(self):
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


@dataclass
class KineticConfig:
    particles: int = 100_000
    compare_time: float = 0.5

    def __post_init__(self):
        if self.particles < 1:
            raise ValueError("particles must be >= 1")
        if not self.compare_time > 0.0:
            raise ValueError("compare_time must be positive")


@dataclass
class RunConfig:
    grid: GridConfig
    params: FluidParams
    time: TimeConfig
    initial_data: InitSpec
    outputs: OutputConfig = field(default_factory=OutputConfig)
    kinetic: KineticConfig = field(default_factory=KineticConfig)
    sigma_override: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sigma_override is not None and self.sigma_override < 0.0:
            raise ValueError("sigma_override must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _is_number(v) -> bool:
    """A finite int or float, not a bool (an int too large for a float fails)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# the JSON values each annotated type admits, and how an error names it
_ADMITS = {
    float: (_is_number, "a finite number"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    type(None): (lambda v: v is None, "null"),
}

_hints = cache(get_type_hints)


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field_values(values, path: str) -> dict:
    """initial_data.amplitudes/phases: finite numbers keyed by rho, u, n or v."""
    if not isinstance(values, dict):
        raise ConfigError(f"{path} must be an object")
    for name, val in values.items():
        key = f"{path}.{name}"
        if name not in ("rho", "u", "n", "v"):
            raise ConfigError(f"unknown key {key}; expected rho, u, n or v")
        if not _is_number(val):
            raise ConfigError(f"{key} must be a finite number, got {val!r}")
    return dict(values)


def _read(cls, doc, path: str):
    """Build dataclass ``cls`` from the JSON object ``doc`` at ``path``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    hints = _hints(cls)
    for key in doc:
        if key not in hints:
            raise ConfigError(f"unknown key {_dotted(path, key)}")
    kwargs = {}
    for f in fields(cls):
        key = _dotted(path, f.name)
        if f.name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required key {key}")
            continue
        value, hint = doc[f.name], hints[f.name]
        if is_dataclass(hint):
            value = _read(hint, value, key)
        elif hint is dict:
            value = _field_values(value, key)
        else:
            kinds = get_args(hint) or (hint,)
            if not any(_ADMITS[k][0](value) for k in kinds):
                expected = " or ".join(_ADMITS[k][1] for k in kinds)
                raise ConfigError(f"{key} must be {expected}, got {value!r}")
            if float in kinds and value is not None:
                value = float(value)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(_dotted(path, str(err))) from err


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    if "schema" not in doc:
        raise ConfigError("missing required key schema")
    schema = doc.pop("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}, got {schema!r}")
    return _read(RunConfig, doc, "")


def to_dict(cfg: RunConfig) -> dict:
    return {"schema": SCHEMA_VERSION, **asdict(cfg)}


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(doc)


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2) + "\n")
