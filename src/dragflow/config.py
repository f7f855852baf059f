"""JSON run configuration: parsing, validation, round-trip serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import FluidParams
from .initial import InitSpec
from .stepping import TimeConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class GridConfig:
    dim: int
    points_per_axis: int


@dataclass
class OutputConfig:
    records_path: str = "records.csv"
    snapshots_path: str | None = None
    snapshot_every: int | None = None


@dataclass
class KineticConfig:
    particles: int = 100_000
    compare_time: float = 0.5


@dataclass
class RunConfig:
    grid: GridConfig
    params: FluidParams
    time: TimeConfig
    initial_data: InitSpec
    outputs: OutputConfig
    kinetic: KineticConfig
    sigma_override: float | None = None
    seed: int = 0


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"missing required key {path}.{key}" if path else f"missing required key {key}")
        return default
    return d[key]


def _section(d: dict, key: str, required: bool = True) -> dict:
    sec = _get(d, key, "", required=required, default={})
    if not isinstance(sec, dict):
        raise ConfigError(f"{key} must be an object")
    return sec


def _field_values(isec: dict, key: str) -> dict:
    """initial_data.amplitudes/phases: finite numbers keyed by rho, u, n or v."""
    values = _get(isec, key, "initial_data", required=False, default={})
    if not isinstance(values, dict):
        raise ConfigError(f"initial_data.{key} must be an object")
    for name, val in values.items():
        path = f"initial_data.{key}.{name}"
        if name not in ("rho", "u", "n", "v"):
            raise ConfigError(f"unknown key {path}; expected rho, u, n or v")
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
            raise ConfigError(f"{path} must be a finite number, got {val!r}")
    return dict(values)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    schema = _get(doc, "schema", "")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}, got {schema!r}")

    gsec = _section(doc, "grid")
    grid = GridConfig(
        dim=int(_get(gsec, "dim", "grid", required=False, default=1)),
        points_per_axis=int(_get(gsec, "points_per_axis", "grid")),
    )
    if grid.dim not in (1, 2, 3):
        raise ConfigError("grid.dim must be 1, 2 or 3")
    if grid.points_per_axis < 8 or grid.points_per_axis % 2:
        raise ConfigError("grid.points_per_axis must be even and >= 8")

    psec = _section(doc, "params")
    try:
        params = FluidParams(
            gamma=float(_get(psec, "gamma", "params")),
            mu=float(_get(psec, "mu", "params")),
            lam=float(_get(psec, "lam", "params", required=False, default=0.0)),
            drag_on=bool(_get(psec, "drag_on", "params", required=False, default=True)),
        )
    except ValueError as err:
        raise ConfigError(f"params: {err}") from err

    tsec = _section(doc, "time")
    try:
        time = TimeConfig(
            t_end=float(_get(tsec, "t_end", "time")),
            cfl_advective=float(_get(tsec, "cfl_advective", "time", required=False, default=0.4)),
            cfl_diffusive=float(_get(tsec, "cfl_diffusive", "time", required=False, default=0.25)),
            dt_max=float(_get(tsec, "dt_max", "time", required=False, default=1e-2)),
            scheme=str(_get(tsec, "scheme", "time", required=False, default="rk4")),
            record_every=int(_get(tsec, "record_every", "time", required=False, default=1)),
        )
    except ValueError as err:
        raise ConfigError(f"time: {err}") from err

    isec = _section(doc, "initial_data")
    amplitudes, phases = _field_values(isec, "amplitudes"), _field_values(isec, "phases")
    try:
        init = InitSpec(
            kind=str(_get(isec, "kind", "initial_data")),
            amplitudes=amplitudes,
            phases=phases,
            base_rho=float(_get(isec, "base_rho", "initial_data", required=False, default=1.0)),
            modes=int(_get(isec, "modes", "initial_data", required=False, default=3)),
            snapshot=_get(isec, "snapshot", "initial_data", required=False),
        )
    except ValueError as err:
        raise ConfigError(f"initial_data: {err}") from err

    osec = _section(doc, "outputs", required=False)
    outputs = OutputConfig(
        records_path=str(_get(osec, "records_path", "outputs", required=False, default="records.csv")),
        snapshots_path=_get(osec, "snapshots_path", "outputs", required=False),
        snapshot_every=_get(osec, "snapshot_every", "outputs", required=False),
    )
    if outputs.snapshot_every is not None:
        outputs.snapshot_every = int(outputs.snapshot_every)
        if outputs.snapshot_every < 1:
            raise ConfigError("outputs.snapshot_every must be >= 1")

    ksec = _section(doc, "kinetic", required=False)
    kinetic = KineticConfig(
        particles=int(_get(ksec, "particles", "kinetic", required=False, default=100_000)),
        compare_time=float(_get(ksec, "compare_time", "kinetic", required=False, default=0.5)),
    )

    sigma_override = _get(doc, "sigma_override", "", required=False)
    if sigma_override is not None:
        sigma_override = float(sigma_override)
        if sigma_override < 0.0:
            raise ConfigError("sigma_override must be nonnegative")
    seed = int(_get(doc, "seed", "", required=False, default=0))

    return RunConfig(grid, params, time, init, outputs, kinetic, sigma_override, seed)


def to_dict(cfg: RunConfig) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "grid": {"dim": cfg.grid.dim, "points_per_axis": cfg.grid.points_per_axis},
        "params": {
            "gamma": cfg.params.gamma,
            "mu": cfg.params.mu,
            "lam": cfg.params.lam,
            "drag_on": cfg.params.drag_on,
        },
        "time": {
            "t_end": cfg.time.t_end,
            "cfl_advective": cfg.time.cfl_advective,
            "cfl_diffusive": cfg.time.cfl_diffusive,
            "dt_max": cfg.time.dt_max,
            "scheme": cfg.time.scheme,
            "record_every": cfg.time.record_every,
        },
        "initial_data": {
            "kind": cfg.initial_data.kind,
            "amplitudes": dict(cfg.initial_data.amplitudes),
            "phases": dict(cfg.initial_data.phases),
            "base_rho": cfg.initial_data.base_rho,
            "modes": cfg.initial_data.modes,
            "snapshot": cfg.initial_data.snapshot,
        },
        "outputs": {
            "records_path": cfg.outputs.records_path,
            "snapshots_path": cfg.outputs.snapshots_path,
            "snapshot_every": cfg.outputs.snapshot_every,
        },
        "kinetic": {
            "particles": cfg.kinetic.particles,
            "compare_time": cfg.kinetic.compare_time,
        },
        "sigma_override": cfg.sigma_override,
        "seed": cfg.seed,
    }
    return doc


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return parse_config(doc)


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2) + "\n")
