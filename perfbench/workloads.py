"""The benchmark's workloads: set-up, solve, and the check of their outputs.

Each workload is a config file under ``configs/``.  The grid workloads run
``stepping.run`` with a ``Recorder`` and write the records CSV; ``kinetic1d``
runs ``kinetic.compare_once``.  Outputs are checked against references
stored under ``reference/`` (written by ``make_reference.py``) and against the
conservation bounds of ``dragflow validate``.

The package is imported lazily, inside the functions, so that the caller can
put the checkout's ``src/`` on ``sys.path`` and start its set-up clock first.
"""
from __future__ import annotations

import gzip
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"

NAMES = ("ref1d", "diag2d", "spectral3d", "kinetic1d")
# multi_mode data draws its phases from the seed; single_mode data ignores it
SEEDED = ("diag2d", "spectral3d")
# the seed picks one of this many inputs, each with a stored reference
SEED_CLASSES = 16
# records gate: |run - reference| <= REL_TOL * max(1, largest |reference| of
# the column).  The floor of 1, the base density, keeps columns that are pure
# round-off (mean(n), total momentum, identity residuals) from failing when a
# change only reorders floating-point sums.
REL_TOL = 1e-12
# one BLAS thread: no thread pool, and sums in a fixed order
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
KINETIC_FIELDS = ("diff_rho", "diff_m", "pert_norm", "rel_diff", "theta_mass", "q_abs")


def input_seed(seed: int) -> int:
    return seed % SEED_CLASSES


def reference_path(name: str, seed: int) -> Path:
    if name == "kinetic1d":
        return REFERENCE / "kinetic1d.json"
    if name in SEEDED:
        return REFERENCE / f"{name}-s{input_seed(seed):02d}.csv.gz"
    return REFERENCE / f"{name}.csv.gz"


@dataclass
class Prepared:
    name: str
    cfg: object  # dragflow.config.RunConfig
    grid: object
    state: object
    recorder: object
    tiny: bool


def setup(name: str, seed: int, tiny: bool = False) -> Prepared:
    """Config, grid, initial data and recorder (with the Bogovskii constant).

    ``kinetic1d`` uses its recorder only for that constant, which
    ``compare_once``'s grid run then finds cached.  ``tiny`` cuts the run to a few steps (and ``kinetic1d`` to 2,000
    particles) for the self-test; tiny runs have no stored reference.
    """
    import numpy as np

    from dragflow import Grid, Recorder, generate_initial
    from dragflow.config import load_config

    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    cfg = load_config(CONFIGS / f"{name}.json")
    if tiny:
        dx = 2.0 * math.pi / cfg.grid.points_per_axis
        diffusive_dt = cfg.time.cfl_diffusive * dx * dx / (2.0 * cfg.params.mu + cfg.params.lam)
        time = replace(cfg.time, t_end=min(cfg.time.t_end, 4.5 * diffusive_dt))
        kin = replace(cfg.kinetic, particles=min(cfg.kinetic.particles, 2000))
        cfg = replace(cfg, time=time, kinetic=kin)
    grid = Grid(cfg.grid.dim, cfg.grid.points_per_axis)
    state = generate_initial(cfg.initial_data, grid, np.random.default_rng(input_seed(seed)))
    recorder = Recorder(grid, cfg.params, sigma=cfg.sigma_override)
    return Prepared(name, cfg, grid, state, recorder, tiny)


def solve(p: Prepared, out_dir: Path) -> dict:
    """The timed part of a run; returns what ``check`` needs."""
    from dragflow import kinetic, recordio, stepping

    if p.name == "kinetic1d":
        outcome = kinetic.compare_once(
            p.grid, p.state, p.cfg.params, p.cfg.time, p.cfg.kinetic.particles
        )
        return {"outcome": asdict(outcome)}
    result = stepping.run(p.state, p.cfg.params, p.cfg.time, p.recorder)
    path = out_dir / "records.csv"
    recordio.write_records(path, result.records, p.grid.dim)
    return {"result": result, "records_path": path}


def output_bytes(p: Prepared, out: dict) -> bytes:
    """The run's output as bytes, for the traced-equals-untraced check."""
    if p.name == "kinetic1d":
        return json.dumps({k: repr(v) for k, v in out["outcome"].items()}).encode()
    return out["records_path"].read_bytes()


def check(p: Prepared, seed: int, out: dict) -> list[str]:
    """Every way the run's outputs are wrong; empty when they are right."""
    if p.name == "kinetic1d":
        got = out["outcome"]
        problems = [f"{k} is not finite" for k in KINETIC_FIELDS if not math.isfinite(got[k])]
        if not p.tiny:
            ref = json.loads(reference_path(p.name, seed).read_text())
            problems += [
                f"{k}={got[k]!r} differs from reference {ref[k]!r}"
                for k in KINETIC_FIELDS
                if abs(got[k] - ref[k]) > REL_TOL * max(1.0, abs(ref[k]))
            ]
        return problems
    problems = conservation_problems(out["result"])
    if not p.tiny:
        ref_text = gzip.decompress(reference_path(p.name, seed).read_bytes()).decode()
        problems += compare_records(out["records_path"].read_text(), ref_text)
    return problems


def conservation_problems(result) -> list[str]:
    """The run-level bounds ``dragflow validate`` applies, at its tolerances."""
    import numpy as np

    if result.status.value != "completed":
        return [f"run stopped with status {result.status.value}"]
    recs = result.records
    problems = []

    def bound(label: str, value: float, limit: float) -> None:
        if not value <= limit:
            problems.append(f"{label} = {value:.3e} exceeds {limit:g}")

    mass = np.array([r.averages.rho_c for r in recs])
    bound("mass_rho drift", float(np.max(np.abs(mass - mass[0])) / abs(mass[0])), 1e-8)
    bound("mean_n", float(np.max(np.abs([r.mass_n for r in recs]))), 1e-8)
    mom = np.array([r.mom_total for r in recs])
    scale = max(float(np.max(np.abs(mom[0]))), recs[0].functionals.E_dev ** 0.5, 1e-30)
    bound("momentum drift", float(np.max(np.abs(mom - mom[0])) / scale), 1e-6)
    bound("reprojection", result.reprojection_max, 1e-10)
    if result.floor_ever_active:
        problems.append("vacuum floor engaged")
    energy = np.array([r.functionals.E for r in recs])
    rise = float(np.max(np.diff(energy), initial=0.0)) / max(abs(energy[0]), 1e-30)
    bound("energy increase", rise, 1e-9)
    return problems


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def compare_records(text: str, ref_text: str, rel: float = REL_TOL) -> list[str]:
    """Compare a records CSV with the reference, column by column.

    A value passes when it is within ``rel`` times the larger of 1 and the
    column's largest reference magnitude (nan matches nan); flags must match
    exactly.  Only the reference's columns are compared, so added columns
    do not fail.
    """
    header, rows = _table(text)
    ref_header, ref_rows = _table(ref_text)
    missing = [c for c in ref_header if c not in header]
    if missing:
        return [f"records lack columns {missing}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} records, reference has {len(ref_rows)}"]
    problems = []
    for j, col in enumerate(ref_header):
        i = header.index(col)
        got = [row[i] for row in rows]
        want = [row[j] for row in ref_rows]
        if col == "flags":
            if got != want:
                problems.append("flags differ from reference")
            continue
        got_f = [float(v) for v in got]
        want_f = [float(v) for v in want]
        scale = max([1.0] + [abs(v) for v in want_f if math.isfinite(v)])
        worst = 0.0
        for a, b in zip(got_f, want_f):
            if math.isnan(a) and math.isnan(b):
                continue
            if math.isnan(a) or math.isnan(b):
                worst = math.inf
            else:
                worst = max(worst, abs(a - b))
        if worst > rel * scale:
            problems.append(f"column {col} differs by {worst:.3e} (scale {scale:.3e})")
    return problems
