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

_COLUMN_DOC = {
    "t": "record time",
    "mass_rho": "mean particle density (conserved)",
    "mass_n": "mean fluid density perturbation (held at zero)",
    "mom_total": "mean total momentum, one column per axis (conserved)",
    "E": "total energy",
    "D": "dissipation rate functional",
    "L": "momentum/mass fluctuation functional",
    "L_p": "fluctuation functional without the density term",
    "E_script": "interacting energy-variation",
    "E_sigma": "corrected interacting energy (sigma fixed per run)",
    "D_sigma": "corrected dissipation matching E_sigma",
    "m_c": "mean particle velocity, one column per axis",
    "j_c": "mean fluid momentum, one column per axis",
    "rho_c": "total particle mass (unit-mass measure)",
    "min_rho": "grid minimum of the particle density",
    "min_n1": "grid minimum of the fluid density 1+n",
    "grad_u_max": "grid max of |grad u| (steepening monitor)",
    "res_energy": "centered residual of the energy balance (nan at endpoints)",
    "res_esigma": "centered residual of the corrected-energy balance",
    "flags": "semicolon-joined status tokens (may be empty)",
}


def _columns(dim: int) -> list[str]:
    cols = ["t", "mass_rho", "mass_n"]
    cols += [f"mom_total_{a}" for a in range(dim)]
    cols += ["E", "D", "L", "L_p", "E_script", "E_sigma", "D_sigma"]
    cols += [f"m_c_{a}" for a in range(dim)]
    cols += [f"j_c_{a}" for a in range(dim)]
    cols += ["rho_c", "min_rho", "min_n1", "grad_u_max", "res_energy", "res_esigma", "flags"]
    return cols


def record_row(rec: DiagnosticsRecord, dim: int) -> list:
    f = rec.functionals
    row: list = [rec.t, rec.averages.rho_c, rec.mass_n]
    row += [float(p) for p in rec.mom_total]
    row += [f.E, f.D, f.L, f.L_p, f.E_script, f.E_sigma, f.D_sigma]
    row += [float(c) for c in rec.averages.m_c]
    row += [float(c) for c in rec.averages.j_c]
    row += [rec.averages.rho_c, f.min_rho, f.min_n1, f.grad_u_max]
    row += [rec.residuals["energy_balance"], rec.residuals["esigma_balance"]]
    row.append(";".join(rec.flags))
    return row


def write_records(path, records: list[DiagnosticsRecord], dim: int) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = _columns(dim)
    lines = ["# records schema 1"]
    for name, doc in _COLUMN_DOC.items():
        lines.append(f"# {name}: {doc}")
    lines.append(",".join(cols))
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
