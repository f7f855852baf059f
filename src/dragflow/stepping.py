"""Time advancement with CFL control, invariant guards, and run orchestration."""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dynamics import (
    VACUUM_FLOOR,
    FluidParams,
    NonPositiveDensity,
    State,
    grad_velocity_max,
    max_speed,
    primitives,
    rhs,
)
from .functionals import DiagnosticsRecord, Recorder

# max|grad u| above this multiple of its initial value stops a run (see run)
STEEPENING_FACTOR = 10.0


class Status(str, Enum):
    COMPLETED = "completed"
    VACUUM_BREACH = "vacuum_breach"
    FLUID_VACUUM_BREACH = "fluid_vacuum_breach"
    BLOWUP = "blowup"
    GRADIENT_STEEPENING = "gradient_steepening"


class IntegrationError(RuntimeError):
    """A step left the admissible set, or no dt can be computed; ``status``
    is the stop status the run reports."""

    def __init__(self, status: Status, message: str):
        super().__init__(message)
        self.status = status


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Keep the solver loops' freed work arrays mapped between calls.

    glibc serves a request above its mmap threshold from a fresh mapping
    and returns heap tops above its trim threshold to the system.  Left
    dynamic, the thresholds settle at the largest chunk freed so far (about
    0.5 MB in a 2-D 64^2 run) and twice that, so every ``rhs`` call and
    every particle step hands over a megabyte of heap and faults it back in,
    zero-filled, on the next call.  Pinning the mmap threshold at 32 MiB
    (glibc's own ceiling for its dynamic threshold on 64-bit) and the trim
    threshold at twice that (glibc's own rule) keeps those pages mapped.
    Arithmetic is unchanged.  Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@dataclass
class TimeConfig:
    t_end: float
    cfl_advective: float = 0.4
    cfl_diffusive: float = 0.25
    dt_max: float = 1e-2
    scheme: str = "rk4"
    record_every: int = 1

    def __post_init__(self):
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be finite and nonnegative")
        for name in ("cfl_advective", "cfl_diffusive"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {val}")
        if not (self.dt_max > 0.0 and math.isfinite(self.dt_max)):
            raise ValueError("dt_max must be positive and finite")
        self.scheme = str(self.scheme).lower()
        if self.scheme not in ("rk4", "ssp_rk3"):
            raise ValueError(f"scheme must be 'rk4' or 'ssp_rk3', got {self.scheme!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class RunResult:
    final_state: State
    records: list[DiagnosticsRecord]
    status: Status
    t_final: float
    steps: int
    floor_ever_active: bool
    reprojection_max: float

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])


def compute_dt(state: State, params: FluidParams, cfg: TimeConfig) -> float:
    """min of the advective CFL, the diffusive CFL, and dt_max."""
    return cfl_dt(max_speed(state, params), state.grid.dx, params, cfg)


def cfl_dt(speed: float, dx: float, params: FluidParams, cfg: TimeConfig) -> float:
    """min of the advective CFL for signal speed ``speed``, the diffusive
    CFL, and dt_max, on a grid of spacing ``dx``."""
    if not math.isfinite(speed):
        raise IntegrationError(Status.BLOWUP, f"max signal speed is {speed}")
    advective = cfg.cfl_advective * dx / speed if speed > 0.0 else math.inf
    diffusive = cfg.cfl_diffusive * dx * dx / (2.0 * params.mu + params.lam)
    dt = min(advective, diffusive, cfg.dt_max)
    if not dt > 0.0:
        raise IntegrationError(Status.BLOWUP, f"computed dt = {dt}")
    return dt


def _rk_advance(y: np.ndarray, f, dt: float, scheme: str) -> tuple[np.ndarray, float]:
    """One guarded explicit Runge-Kutta step of y' = f(y) on one stacked
    array whose row 0 is the fluid's n; returns the advanced stack, newly
    allocated, and the |mean(n)| its re-projection removed.  ``f`` is first
    called with ``y`` itself.

    A stage is one scale-and-add over the stack, (c * k) + y, and every sum
    adds its terms to y from left to right.  The final sum scales the k's in
    place, so it makes no temporary the size of the stack.
    Raises IntegrationError: FLUID_VACUUM_BREACH when a stage leaves the
    fluid's admissible set (``NonPositiveDensity`` from ``f``), BLOWUP when
    the advanced stack holds a non-finite value.
    """

    def stage(*terms: tuple[float, np.ndarray]) -> np.ndarray:
        (c, k), *rest = terms
        out = k * c
        out += y
        for c, k in rest:
            out += k * c
        return out

    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            if scheme == "rk4":
                k1 = f(y)
                k2 = f(stage((0.5 * dt, k1)))
                k3 = f(stage((0.5 * dt, k2)))
                k4 = f(stage((dt, k3)))
                terms = ((dt / 6.0, k1), (dt / 3.0, k2), (dt / 3.0, k3), (dt / 6.0, k4))
            elif scheme == "ssp_rk3":
                k1 = f(y)
                k2 = f(stage((dt, k1)))
                k3 = f(stage((0.25 * dt, k1), (0.25 * dt, k2)))
                terms = ((dt / 6.0, k1), (dt / 6.0, k2), (2.0 * dt / 3.0, k3))
            else:
                raise ValueError(f"unknown scheme {scheme!r}")
            for c, k in terms:
                k *= c
            out = y + k1
            for _, k in terms[1:]:
                out += k
    except NonPositiveDensity as err:
        raise IntegrationError(Status.FLUID_VACUUM_BREACH, str(err)) from err

    # round-off guard: keep the conserved mean(n) at exactly zero
    # np.mean's sum-then-divide without its wrapper, as functionals._mean
    reproj = float(out[0].sum()) / out[0].size
    out[0] -= reproj
    if not np.isfinite(out).all():
        raise IntegrationError(Status.BLOWUP, "non-finite values after the step")
    return out, abs(reproj)


@dataclass
class StepInfo:
    floor_active: bool = False
    reprojection: float = 0.0


def step(
    state: State, params: FluidParams, dt: float, scheme: str = "rk4"
) -> tuple[State, StepInfo]:
    """One guarded advance (see _rk_advance), then the particle floor and
    min(1+n) checks on the new state's Primitives.

    The state it returns carries its Primitives, which its dt, its
    steepening guard, its record and the first stage of the next step read.
    Raises IntegrationError when the advanced state leaves the admissible
    set: BLOWUP, then VACUUM_BREACH, then FLUID_VACUUM_BREACH.
    """
    g = state.grid
    info = StepInfo()

    def f(y):
        stage = state if y is state.y else State.of(g, y)
        stage.primitives = primitives(stage)
        info.floor_active = info.floor_active or stage.primitives.floor
        return rhs(stage, params)

    y, info.reprojection = _rk_advance(state.y, f, dt, scheme)
    new = State.of(g, y)
    prim = primitives(new)
    if prim.floor:
        raise IntegrationError(
            Status.VACUUM_BREACH, f"min rho = {new.min_rho():.3e} below floor {VACUUM_FLOOR:g}"
        )
    if prim.n1_min <= 0.0:
        raise IntegrationError(Status.FLUID_VACUUM_BREACH, f"min(1+n) = {prim.n1_min:.3e}")
    new.primitives = prim
    return new, info


def run(
    initial: State,
    params: FluidParams,
    cfg: TimeConfig,
    recorder: Recorder | None = None,
) -> RunResult:
    """Advance to t_end, recording diagnostics every record_every steps.

    Identity residuals at a recorded step are centered over the adjacent
    integrator steps, so a record is finalized one step after its state is
    reached; the t=0 and final records carry no residuals.  A run stops
    early with a non-completed status when a vacuum/blowup guard trips or
    when max|grad u| exceeds STEEPENING_FACTOR times its initial value
    (small-data regime guard; uniform initial data disables the ceiling).
    """
    _pin_malloc_thresholds()
    initial.validate()
    if recorder is None:
        recorder = Recorder(initial.grid, params)

    grad0 = grad_velocity_max(initial)
    ceiling = STEEPENING_FACTOR * grad0 if grad0 > 1e-12 else math.inf

    # [state, its max|grad u| from the guard, its evaluation] for the current
    # state and, while a pending record needs it, the one a step behind.  A
    # state is evaluated once, by the first record that needs it, and then
    # only the evaluation's scalars are kept; a record evaluates its centre
    # and neighbours together.
    def evaluated(entry: list):
        if entry[2] is None:
            entry[2] = recorder.evaluate(entry[0], entry[1])
            entry[0] = None
        return entry[2]

    cur = [initial, grad0, None]
    prev: list | None = None
    records: list[DiagnosticsRecord] = [recorder.record(0.0, initial, evaluation=evaluated(cur))]

    status = Status.COMPLETED
    floor_ever = False
    reproj_max = 0.0
    t = 0.0
    steps = 0
    state = initial
    pending_dt: float | None = None  # dt before the current state, awaiting its window

    t_end = cfg.t_end
    eps = 1e-12 * max(1.0, t_end)
    while t < t_end - eps:
        try:
            dt = min(compute_dt(state, params, cfg), t_end - t)
            new_state, info = step(state, params, dt, cfg.scheme)
        except IntegrationError as err:
            # a pending record is the current (t, state): record it with the
            # stop flag; at the first step the stop record replaces t=0's
            status = err.status
            stop = ("stop:" + status.value,)
            if steps == 0:
                records[0] = replace(records[0], flags=stop + records[0].flags)
            else:
                records.append(recorder.record(t, state, flags=stop, evaluation=evaluated(cur)))
            return RunResult(state, records, status, t, steps, floor_ever, reproj_max)

        floor_ever = floor_ever or info.floor_active
        reproj_max = max(reproj_max, info.reprojection)

        new = [new_state, grad_velocity_max(new_state), None]
        if pending_dt is not None:
            window = ((pending_dt, evaluated(prev)), (dt, evaluated(new)))
            records.append(recorder.record(t, state, window=window, evaluation=evaluated(cur)))
            pending_dt = None

        prev, cur = cur, new
        t += dt
        steps += 1
        state = new_state

        if cur[1] > ceiling:
            status = Status.GRADIENT_STEEPENING
            flags = ("stop:" + status.value,)
            records.append(recorder.record(t, state, flags=flags, evaluation=evaluated(cur)))
            return RunResult(state, records, status, t, steps, floor_ever, reproj_max)

        if t >= t_end - eps:
            records.append(recorder.record(t, state, evaluation=evaluated(cur)))
        elif steps % cfg.record_every == 0:
            pending_dt = dt
        else:
            prev = None

    return RunResult(state, records, status, t, steps, floor_ever, reproj_max)
