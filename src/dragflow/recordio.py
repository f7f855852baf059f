"""Serialization: records CSV and flat binary field snapshots.

Records CSV: comment header documenting every column, then one row per
record with floats written as shortest round-trip decimals.  The flags
column joins these tokens: ``endpoint`` (no neighbours, so the residuals
are nan), ``e0_hypothesis`` (max|n| > 1/2, so E0_integral is nan),
``nonfinite`` (some other functional, check or residual is inf or nan) and
``stop:<status>`` (the run stopped early at this record).  Snapshot
files: one flat little-endian float64 array per field per time behind a
32-byte header (magic ``DAF1``, dim, points per axis, time), plus a JSON
index describing the files.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .dynamics import State
from .functionals import DiagnosticsRecord
from .grid import Grid

SNAPSHOT_MAGIC = b"DAF1"
_HEADER = struct.Struct("<4sIId12x")  # magic, dim, n, time; padded to 32 bytes
assert _HEADER.size == 32

# the columns: name, whether it has one column <name>_<axis> per axis, doc, value
_SCHEMA = (
    ("t", False, "record time", lambda r: r.t),
    ("mass_rho", False, "mean particle density (conserved)", lambda r: r.averages.rho_c),
    ("mass_n", False, "mean fluid density perturbation (held at zero)", lambda r: r.mass_n),
    ("mom_total", True, "mean total momentum, one column per axis (conserved)",
     lambda r: r.mom_total),
    ("E", False, "total energy", lambda r: r.functionals.E),
    ("D", False, "dissipation rate functional", lambda r: r.functionals.D),
    ("L", False, "momentum/mass fluctuation functional", lambda r: r.functionals.L),
    ("L_p", False, "fluctuation functional without the density term", lambda r: r.functionals.L_p),
    ("E_script", False, "interacting energy-variation", lambda r: r.functionals.E_script),
    ("E_sigma", False, "corrected interacting energy (sigma fixed per run)",
     lambda r: r.functionals.E_sigma),
    ("D_sigma", False, "corrected dissipation matching E_sigma", lambda r: r.functionals.D_sigma),
    ("m_c", True, "mean particle velocity, one column per axis", lambda r: r.averages.m_c),
    ("j_c", True, "mean fluid momentum, one column per axis", lambda r: r.averages.j_c),
    ("rho_c", False, "total particle mass (unit-mass measure)", lambda r: r.averages.rho_c),
    ("min_rho", False, "grid minimum of the particle density", lambda r: r.functionals.min_rho),
    ("min_n1", False, "grid minimum of the fluid density 1+n", lambda r: r.functionals.min_n1),
    ("grad_u_max", False, "grid max of |grad u| (steepening monitor)",
     lambda r: r.functionals.grad_u_max),
    ("res_energy", False, "centered residual of the energy balance (nan at endpoints)",
     lambda r: r.residuals["energy_balance"]),
    ("res_esigma", False, "centered residual of the corrected-energy balance",
     lambda r: r.residuals["esigma_balance"]),
    ("flags", False, "semicolon-joined status tokens (may be empty)", lambda r: ";".join(r.flags)),
)


def _columns(dim: int) -> list[str]:
    axes = [f"_{a}" for a in range(dim)]
    return [name + s for name, per_axis, _, _ in _SCHEMA for s in (axes if per_axis else [""])]


def record_row(rec: DiagnosticsRecord, dim: int) -> list:
    row: list = []
    for _, per_axis, _, value in _SCHEMA:
        v = value(rec)
        row += [float(c) for c in v] if per_axis else [v]
    return row


def write_records(path, records: list[DiagnosticsRecord], dim: int) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# records schema 1"]
    lines += [f"# {name}: {doc}" for name, _, doc, _ in _SCHEMA]
    lines.append(",".join(_columns(dim)))
    for rec in records:
        row = record_row(rec, dim)
        lines.append(",".join(v if isinstance(v, str) else repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_records(path) -> list[dict]:
    """Rows as dicts of floats (flags stays a string)."""
    rows = []
    header: list[str] | None = None
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        parts = line.split(",")
        row: dict = {}
        for key, val in zip(header, parts):
            row[key] = val if key == "flags" else float(val)
        rows.append(row)
    return rows


def write_plot_data(path, records: list[DiagnosticsRecord]) -> None:
    """(t, log L, log E_sigma) columns for external plotting tools."""
    lines = ["# t log_L log_E_sigma (natural logs; nan where non-positive)"]
    for rec in records:
        log_l = math.log(rec.functionals.L) if rec.functionals.L > 0 else math.nan
        log_e = (
            math.log(rec.functionals.E_sigma)
            if rec.functionals.E_sigma > 0
            else math.nan
        )
        lines.append(f"{rec.t!r} {log_l!r} {log_e!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def write_field(path, field: np.ndarray, dim: int, n: int, t: float) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, dim, n, t))
        fh.write(np.ascontiguousarray(field, dtype="<f8").tobytes())


def read_field(path) -> tuple[int, int, float, np.ndarray]:
    raw = Path(path).read_bytes()
    magic, dim, n, t = _HEADER.unpack_from(raw, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad snapshot magic {magic!r}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
    return dim, n, t, data.reshape((n,) * dim)


def state_field_names(dim: int) -> list[str]:
    return ["rho"] + [f"m_{a}" for a in range(dim)] + ["n"] + [f"j_{a}" for a in range(dim)]


def write_state_snapshot(directory, state: State, t: float, tag: str) -> list[dict]:
    """One file per field; returns index entries for the JSON index."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = state.grid
    fields = {"rho": state.rho, "n": state.n}
    for a in range(g.dim):
        fields[f"m_{a}"] = state.m[a]
        fields[f"j_{a}"] = state.j[a]
    entries = []
    for name, arr in fields.items():
        fname = f"{name}_{tag}.bin"
        write_field(directory / fname, arr, g.dim, g.n, t)
        entries.append({"field": name, "t": t, "file": fname})
    return entries


def write_snapshot_index(directory, entries: list[dict], dim: int, n: int) -> Path:
    directory = Path(directory)
    index = {"schema": 1, "dim": dim, "points_per_axis": n, "entries": entries}
    path = directory / "snapshots.json"
    path.write_text(json.dumps(index, indent=2) + "\n")
    return path


def load_state(index_path, grid: Grid) -> State:
    """Rebuild a State from the latest time in a snapshot index."""
    index_path = Path(index_path)
    index = json.loads(index_path.read_text())
    if index.get("dim") != grid.dim or index.get("points_per_axis") != grid.n:
        raise ValueError("snapshot grid does not match the requested grid")
    entries = index["entries"]
    target = max(e["t"] for e in entries)
    fields = {}
    for e in entries:
        if e["t"] == target:
            _, _, _, arr = read_field(index_path.parent / e["file"])
            fields[e["field"]] = arr
    names = state_field_names(grid.dim)
    missing = [nm for nm in names if nm not in fields]
    if missing:
        raise ValueError(f"snapshot at t={target} is missing fields {missing}")
    m = np.stack([fields[f"m_{a}"] for a in range(grid.dim)])
    j = np.stack([fields[f"j_{a}"] for a in range(grid.dim)])
    return State(grid, fields["rho"], m, fields["n"], j)
