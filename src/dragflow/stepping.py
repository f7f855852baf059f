"""Time advancement with CFL control, invariant guards, and run orchestration."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import (
    VACUUM_FLOOR,
    FluidParams,
    NonPositiveDensity,
    State,
    grad_velocity_max,
    max_speed,
    rhs,
)
from .functionals import DiagnosticsRecord, Recorder


class Status(str, Enum):
    COMPLETED = "completed"
    VACUUM_BREACH = "vacuum_breach"
    FLUID_VACUUM_BREACH = "fluid_vacuum_breach"
    BLOWUP = "blowup"
    GRADIENT_STEEPENING = "gradient_steepening"


class IntegrationError(RuntimeError):
    status = Status.BLOWUP


class VacuumBreachError(IntegrationError):
    status = Status.VACUUM_BREACH


class FluidVacuumBreachError(IntegrationError):
    status = Status.FLUID_VACUUM_BREACH


class BlowupError(IntegrationError):
    status = Status.BLOWUP


class DegenerateState(RuntimeError):
    """CFL input (max signal speed) is not finite."""


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


def compute_dt(
    state: State, params: FluidParams, cfg: TimeConfig, floor: float = VACUUM_FLOOR
) -> float:
    """min of the advective CFL, the diffusive CFL, and dt_max."""
    return cfl_dt(max_speed(state, params, floor), state.grid.dx, params, cfg)


def cfl_dt(speed: float, dx: float, params: FluidParams, cfg: TimeConfig) -> float:
    """min of the advective CFL for signal speed ``speed``, the diffusive
    CFL, and dt_max, on a grid of spacing ``dx``."""
    if not math.isfinite(speed):
        raise DegenerateState(f"max signal speed is {speed}")
    advective = cfg.cfl_advective * dx / speed if speed > 0.0 else math.inf
    diffusive = cfg.cfl_diffusive * dx * dx / (2.0 * params.mu + params.lam)
    dt = min(advective, diffusive, cfg.dt_max)
    if not dt > 0.0:
        raise DegenerateState(f"computed dt = {dt}")
    return dt


def _combine(base: tuple, rates: list[tuple[float, tuple]]) -> list:
    out = [a.copy() for a in base]
    for c, r in rates:
        for a, d in zip(out, r):
            a += c * d
    return out


def _rk_advance(y: tuple, f, dt: float, scheme: str) -> list:
    """One explicit Runge-Kutta step of y' = f(y) over a tuple of arrays;
    returns the advanced arrays, newly allocated, in the same order.

    A stage that leaves the fluid's admissible set (``NonPositiveDensity``
    from ``f``) raises FluidVacuumBreachError.
    """
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            if scheme == "rk4":
                k1 = f(y)
                k2 = f(_combine(y, [(0.5 * dt, k1)]))
                k3 = f(_combine(y, [(0.5 * dt, k2)]))
                k4 = f(_combine(y, [(dt, k3)]))
                return _combine(
                    y, [(dt / 6.0, k1), (dt / 3.0, k2), (dt / 3.0, k3), (dt / 6.0, k4)]
                )
            if scheme == "ssp_rk3":
                k1 = f(y)
                k2 = f(_combine(y, [(dt, k1)]))
                k3 = f(_combine(y, [(0.25 * dt, k1), (0.25 * dt, k2)]))
                return _combine(
                    y, [(dt / 6.0, k1), (dt / 6.0, k2), (2.0 * dt / 3.0, k3)]
                )
            raise ValueError(f"unknown scheme {scheme!r}")
    except NonPositiveDensity as err:
        raise FluidVacuumBreachError(str(err)) from err


@dataclass
class StepInfo:
    floor_active: bool = False
    reprojection: float = 0.0


def step(
    state: State,
    params: FluidParams,
    dt: float,
    scheme: str = "rk4",
    floor: float = VACUUM_FLOOR,
) -> tuple[State, StepInfo]:
    """One explicit step; re-asserts invariants and re-projects mean(n).

    Raises VacuumBreachError / FluidVacuumBreachError / BlowupError when
    the advanced state leaves the admissible set.
    """
    g = state.grid
    info = StepInfo()

    def f(y):
        rates = rhs(State(g, *y), params, floor)
        info.floor_active = info.floor_active or rates.floor_active
        return rates.d_rho, rates.d_m, rates.d_n, rates.d_j

    new = State(g, *_rk_advance((state.rho, state.m, state.n, state.j), f, dt, scheme))

    # round-off guard: keep the conserved mean(n) at exactly zero
    reproj = float(np.mean(new.n))
    new.n -= reproj
    info.reprojection = abs(reproj)

    for name, arr in (("rho", new.rho), ("m", new.m), ("n", new.n), ("j", new.j)):
        if not np.all(np.isfinite(arr)):
            raise BlowupError(f"non-finite values in {name}")
    if new.min_rho() < floor:
        raise VacuumBreachError(f"min rho = {new.min_rho():.3e} below floor {floor:g}")
    if new.min_n1() <= 0.0:
        raise FluidVacuumBreachError(f"min(1+n) = {new.min_n1():.3e}")
    return new, info


def run(
    initial: State,
    params: FluidParams,
    cfg: TimeConfig,
    recorder: Recorder | None = None,
    floor: float = VACUUM_FLOOR,
    steepening_factor: float = 10.0,
) -> RunResult:
    """Advance to t_end, recording diagnostics every record_every steps.

    Identity residuals at a recorded step are centered over the adjacent
    integrator steps, so a record is finalized one step after its state is
    reached; the t=0 and final records carry no residuals.  A run stops
    early with a non-completed status when a vacuum/blowup guard trips or
    when max|grad u| exceeds steepening_factor times its initial value
    (small-data regime guard; uniform initial data disables the ceiling).
    """
    initial.validate()
    if recorder is None:
        recorder = Recorder(initial.grid, params)

    grad0 = grad_velocity_max(initial, floor)
    ceiling = steepening_factor * grad0 if grad0 > 1e-12 else math.inf

    records: list[DiagnosticsRecord] = []
    records.append(recorder.record(0.0, initial))

    status = Status.COMPLETED
    floor_ever = False
    reproj_max = 0.0
    t = 0.0
    steps = 0
    state = initial
    prev: tuple[float, State] | None = None  # state one step behind
    pending: tuple[float, State, float] | None = None  # (t, state, dt_before)

    t_end = cfg.t_end
    eps = 1e-12 * max(1.0, t_end)
    while t < t_end - eps:
        dt = min(compute_dt(state, params, cfg, floor), t_end - t)
        try:
            new_state, info = step(state, params, dt, cfg.scheme, floor)
        except IntegrationError as err:
            status = err.status
            if pending is not None:
                pt, ps, _ = pending
                records.append(recorder.record(pt, ps, flags=("stop:" + status.value,)))
                pending = None
            else:
                records.append(recorder.record(t, state, flags=("stop:" + status.value,)))
            return RunResult(state, records, status, t, steps, floor_ever, reproj_max)

        floor_ever = floor_ever or info.floor_active
        reproj_max = max(reproj_max, info.reprojection)

        if pending is not None:
            pt, ps, dt_before = pending
            window = ((dt_before, prev[1]), (dt, new_state))
            records.append(recorder.record(pt, ps, window=window))
            pending = None

        prev = (t, state)
        t += dt
        steps += 1
        state = new_state

        at_end = t >= t_end - eps
        grad_now = grad_velocity_max(state, floor)
        if grad_now > ceiling:
            status = Status.GRADIENT_STEEPENING
            if pending is not None:
                pt, ps, _ = pending
                records.append(recorder.record(pt, ps))
                pending = None
            records.append(
                recorder.record(t, state, flags=("stop:" + status.value,))
            )
            return RunResult(state, records, status, t, steps, floor_ever, reproj_max)

        if at_end:
            records.append(recorder.record(t, state))
        elif steps % cfg.record_every == 0:
            pending = (t, state, dt)

    return RunResult(state, records, status, t, steps, floor_ever, reproj_max)
