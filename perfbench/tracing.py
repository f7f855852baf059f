"""Outside-in layer trace: spans around calls into the package's modules.

``install`` rebinds public functions of ``dragflow`` (and ``numpy.fft``)
to timing wrappers, in every module namespace that holds them, so calls
between the package's own modules are traced too.  Nothing under ``src/``
changes.  Each call becomes a span (name, start, end, parent) kept in flat
arrays in memory; ``layer_metrics`` turns them into per-layer numbers
after the run.  A span's self time is its duration minus the durations of
its direct children.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

FUNCTIONALS = (
    "interacting_energy",
    "identity_residuals",
    "dissipation",
    "lyapunov",
    "total_energy",
    "energy_deviation",
    "equivalence_constants",
    "pressure_potential_bounds",
    "jc_bounds_check",
    "dissipation_domination_check",
    "energy_density_e0",
    "averages",
)
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


class Tracer:
    """Spans in four parallel arrays, plus counters kept at the same calls."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, func, after=None):
        """A wrapper recording one span per call; ``after(args, kwargs, out)``
        runs once the span has closed, to update counters."""
        nid = self._ids.setdefault(name, len(self._ids))
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open,
        )
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            start.append(0.0)
            end.append(0.0)
            open_.append(i)
            t0 = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                start[i] = t0
                end[i] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- post-run views ----------------------------------------------------

    def arrays(self):
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        return nid, parent, dur

    def self_times(self) -> np.ndarray:
        _, parent, dur = self.arrays()
        has = parent >= 0
        children = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - children

    def under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, parent, _ = self.arrays()
        target, anc_id = self._ids[name], self._ids[ancestor]
        hit = np.zeros(len(nid), dtype=bool)
        up = parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                break
            hit[live] |= nid[up[live]] == anc_id
            up[live] = parent[up[live]]
        return int(np.count_nonzero(hit & (nid == target)))


def _rebind(undo: list, owner, attr: str, wrapper, modules) -> None:
    """Point ``owner.attr`` and every module global bound to it at ``wrapper``."""
    original = getattr(owner, attr)
    undo.append((owner, attr, original))
    setattr(owner, attr, wrapper)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, original))
                setattr(mod, key, wrapper)


def install(tracer: Tracer):
    """Trace the package's layers; returns a function that undoes it."""
    from dragflow import config, dynamics, functionals, grid, initial, kernels, kinetic, recordio, stepping

    modules = [m for k, m in sorted(sys.modules.items()) if k == "dragflow" or k.startswith("dragflow.")]
    undo: list = []
    last_dt = {"dt": math.inf, "limiter": "advective"}

    def on_compute_dt(args, kwargs, dt):
        state, params, cfg = args[:3]
        dx = state.grid.dx
        diffusive = cfg.cfl_diffusive * dx * dx / (2.0 * params.mu + params.lam)
        if math.isclose(dt, cfg.dt_max, rel_tol=1e-12):
            limiter = "dt_max"
        elif math.isclose(dt, diffusive, rel_tol=1e-12):
            limiter = "diffusive"
        else:
            limiter = "advective"
        last_dt.update(dt=dt, limiter=limiter)

    def on_step(args, kwargs, out):
        dt = args[2] if len(args) > 2 else kwargs["dt"]
        shortened = dt < last_dt["dt"] * (1.0 - 1e-12)
        tracer.count("stepping.dt_limiter." + ("t_end" if shortened else last_dt["limiter"]))

    def on_fft(args, kwargs, out):
        tracer.count("grid.fft.points", np.size(args[0]))

    def on_kinetic_run(args, kwargs, out):
        tracer.count("kinetic.particle_steps", out.steps * args[0].size)

    def on_gather(args, kwargs, out):
        tracer.count("kernels.gather.particles", np.size(args[1]))

    def on_deposit_moments(args, kwargs, out):
        tracer.count("kernels.deposit_moments.particles", np.size(args[0]))

    def on_write_records(args, kwargs, out):
        tracer.count("recordio.write_records.bytes", Path(args[0]).stat().st_size)

    functions = [
        (stepping, "run", "stepping.run", None),
        (stepping, "step", "stepping.step", on_step),
        (stepping, "compute_dt", "stepping.compute_dt", on_compute_dt),
        (dynamics, "rhs", "dynamics.rhs", None),
        (dynamics, "grad_velocity_max", "dynamics.grad_velocity_max", None),
        (dynamics, "primitive_velocity", "dynamics.primitive_velocity", None),
        (dynamics, "fluid_terms", "kinetic.fluid_terms", None),
        (functionals, "cached_bogovskii_constant", "functionals.cached_bogovskii_constant", None),
        (kinetic, "compare_once", "kinetic.compare_once", None),
        (kinetic, "monokinetic_ensemble", "kinetic.monokinetic_ensemble", None),
        (kinetic, "kinetic_run", "kinetic.kinetic_run", on_kinetic_run),
        (kinetic, "push", "kinetic.push", None),
        (kinetic, "deposit", "kinetic.deposit", None),
        (kernels, "gather", "kernels.gather", on_gather),
        (kernels, "deposit_moments", "kernels.deposit_moments", on_deposit_moments),
        (recordio, "write_records", "recordio.write_records", on_write_records),
        (config, "load_config", "config.load_config", None),
        (initial, "generate_initial", "initial.generate_initial", None),
    ]
    functions += [(functionals, f, "functionals." + f, None) for f in FUNCTIONALS]
    for owner, attr, name, after in functions:
        # a later version of the package may drop a function: its metrics read 0
        if hasattr(owner, attr):
            _rebind(undo, owner, attr, tracer.wrap(name, getattr(owner, attr), after), modules)
    for cls, attr, name in (
        (functionals.Recorder, "record", "functionals.record"),
        (grid.Grid, "bogovskii", "grid.bogovskii"),
    ):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original))
    for attr in FFT_FUNCTIONS:
        _rebind(undo, np.fft, attr, tracer.wrap("grid.fft", getattr(np.fft, attr), on_fft), modules)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced run: name -> (value, unit)."""
    nid, _, dur = tracer.arrays()
    self_t = tracer.self_times()
    ids = tracer._ids
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def sel(name: str) -> np.ndarray:
        return nid == ids[name] if name in ids else np.zeros(len(nid), dtype=bool)

    def calls(name: str) -> int:
        return int(np.count_nonzero(sel(name)))

    def total(name: str) -> float:
        return float(np.sum(dur[sel(name)]))

    def own(name: str) -> float:
        return float(np.sum(self_t[sel(name)]))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps = dur[sel("stepping.step")]
    out["stepping.step.calls"] = (len(steps), "count")
    out["stepping.step.self_s"] = (own("stepping.step"), "s")
    out["stepping.step.ms_p50"] = (_percentile(steps, 0.5) * 1e3, "ms")
    out["stepping.step.ms_p99"] = (_percentile(steps, 0.99) * 1e3, "ms")
    out["stepping.compute_dt.s"] = (total("stepping.compute_dt"), "s")
    for limiter in ("advective", "diffusive", "dt_max", "t_end"):
        key = "stepping.dt_limiter." + limiter
        out[key] = (int(counters.get(key, 0)), "count")

    out["dynamics.rhs.calls"] = (calls("dynamics.rhs"), "count")
    out["dynamics.rhs.self_s"] = (own("dynamics.rhs"), "s")
    out["dynamics.rhs.us_p50"] = (_percentile(dur[sel("dynamics.rhs")], 0.5) * 1e6, "us")
    out["dynamics.grad_velocity_max.s"] = (total("dynamics.grad_velocity_max"), "s")
    out["dynamics.primitive_velocity.calls"] = (calls("dynamics.primitive_velocity"), "count")

    out["grid.fft.calls"] = (calls("grid.fft"), "count")
    out["grid.fft.s"] = (total("grid.fft"), "s")
    out["grid.fft.points"] = (int(counters.get("grid.fft.points", 0)), "count")
    out["grid.fft.per_rhs"] = (
        ratio(tracer.under("grid.fft", "dynamics.rhs"), calls("dynamics.rhs")),
        "count",
    )
    out["grid.bogovskii.calls"] = (calls("grid.bogovskii"), "count")

    records = dur[sel("functionals.record")]
    out["functionals.record.calls"] = (len(records), "count")
    out["functionals.record.self_s"] = (own("functionals.record"), "s")
    out["functionals.record.ms_p50"] = (_percentile(records, 0.5) * 1e3, "ms")
    out["functionals.record.ms_p99"] = (_percentile(records, 0.99) * 1e3, "ms")
    for f in FUNCTIONALS:
        out[f"functionals.{f}.calls"] = (calls("functionals." + f), "count")
        out[f"functionals.{f}.s"] = (total("functionals." + f), "s")
    out["functionals.states_per_record"] = (
        ratio(tracer.under("functionals.interacting_energy", "functionals.record"), len(records)),
        "count",
    )
    out["functionals.velocity_evals_per_record"] = (
        ratio(tracer.under("dynamics.primitive_velocity", "functionals.record"), len(records)),
        "count",
    )
    out["functionals.cached_bogovskii_constant.s"] = (
        total("functionals.cached_bogovskii_constant"),
        "s",
    )

    for f in ("push", "deposit", "kinetic_run"):
        out[f"kinetic.{f}.self_s"] = (own("kinetic." + f), "s")
        out[f"kinetic.{f}.s"] = (total("kinetic." + f), "s")
    out["kinetic.fluid_terms.calls"] = (calls("kinetic.fluid_terms"), "count")
    out["kinetic.fluid_terms.s"] = (total("kinetic.fluid_terms"), "s")
    out["kinetic.particle_steps"] = (int(counters.get("kinetic.particle_steps", 0)), "count")
    for k in ("gather", "deposit_moments"):
        particles = counters.get(f"kernels.{k}.particles", 0)
        out[f"kernels.{k}.ns_per_particle"] = (ratio(total("kernels." + k) * 1e9, particles), "ns")

    out["recordio.write_records.s"] = (total("recordio.write_records"), "s")
    out["recordio.write_records.bytes"] = (
        int(counters.get("recordio.write_records.bytes", 0)),
        "B",
    )
    out["config.load_config.s"] = (total("config.load_config"), "s")
    out["initial.generate_initial.s"] = (total("initial.generate_initial"), "s")
    return out
