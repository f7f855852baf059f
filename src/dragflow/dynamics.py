"""Constitutive laws and the semi-discrete right-hand side.

The evolved state is conservative: particle density rho, particle momentum
m = rho*u, fluid density perturbation n (the fluid density is 1+n, with
mean(n) = 0), and fluid momentum j = (1+n)*v.  Primitive velocities are
derived.  Quadratic and cubic products feeding flux divergences, the
pressure, and the drag are dealiased with the 2/3 rule so that the
semi-discrete conservation defects are pure round-off.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

VACUUM_FLOOR = 1e-8


class DynamicsError(ValueError):
    pass


class NonPositiveDensity(DynamicsError):
    """Fluid density 1+n reached zero or below somewhere on the grid."""


@dataclass(frozen=True)
class FluidParams:
    """Pressure exponent and viscosities; drag_on isolates the subsystems."""

    gamma: float
    mu: float
    lam: float = 0.0
    drag_on: bool = True

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise DynamicsError(f"gamma must exceed 1, got {self.gamma}")
        if not self.mu > 0.0:
            raise DynamicsError(f"mu must be positive, got {self.mu}")
        if not self.lam + 2.0 * self.mu > 0.0:
            raise DynamicsError(
                f"lam + 2*mu must be positive, got {self.lam + 2 * self.mu}"
            )


@dataclass
class State:
    """The four unknowns at one instant, sharing one grid."""

    grid: Grid
    rho: np.ndarray
    m: np.ndarray
    n: np.ndarray
    j: np.ndarray

    def copy(self) -> "State":
        return State(self.grid, self.rho.copy(), self.m.copy(), self.n.copy(), self.j.copy())

    def validate(self, mean_n_tol: float = 1e-8) -> None:
        g = self.grid
        if self.rho.shape != g.shape or self.n.shape != g.shape:
            raise DynamicsError("scalar fields must match the grid shape")
        vshape = (g.dim,) + g.shape
        if self.m.shape != vshape or self.j.shape != vshape:
            raise DynamicsError("vector fields must have shape (dim,) + grid shape")
        for name, f in (("rho", self.rho), ("m", self.m), ("n", self.n), ("j", self.j)):
            if not np.all(np.isfinite(f)):
                raise DynamicsError(f"non-finite values in {name}")
        if float(np.min(self.rho)) < 0.0:
            raise DynamicsError("rho must be nonnegative")
        if float(np.min(1.0 + self.n)) <= 0.0:
            raise NonPositiveDensity("fluid density 1+n must be positive")
        if abs(float(np.mean(self.n))) > mean_n_tol:
            raise DynamicsError(f"mean(n) = {np.mean(self.n):.3e} exceeds {mean_n_tol:g}")

    def min_rho(self) -> float:
        return float(np.min(self.rho))

    def min_n1(self) -> float:
        return float(np.min(1.0 + self.n))


@dataclass
class StateRates:
    d_rho: np.ndarray
    d_m: np.ndarray
    d_n: np.ndarray
    d_j: np.ndarray
    floor_active: bool = field(default=False)


def pressure_minus_one(n: np.ndarray, gamma: float) -> np.ndarray:
    # expm1/log1p keeps absolute error at the scale of the deviation,
    # which late-time balance residuals depend on.
    return np.expm1(gamma * np.log1p(n))


def pressure_deviation(n: np.ndarray, gamma: float) -> np.ndarray:
    """(1+n)**gamma - 1 - gamma*n, the quadratic part of the pressure."""
    return np.expm1(gamma * np.log1p(n)) - gamma * n


def primitive_velocity(
    density: np.ndarray, momentum: np.ndarray, floor: float = VACUUM_FLOOR
) -> tuple[np.ndarray, bool]:
    """momentum / max(density, floor); flags whether the floor engaged."""
    if not floor > 0.0:
        raise DynamicsError("floor must be positive")
    flagged = bool(np.min(density) < floor)
    return momentum / np.maximum(density, floor)[None], flagged


def fluid_rates(
    grid: Grid, n: np.ndarray, j: np.ndarray, v: np.ndarray, params: FluidParams
) -> tuple[np.ndarray, np.ndarray]:
    """Drag-free fluid rates (d_n, d_j), assembled in spectral space.

    One forward transform per field/product and one inverse per output
    component; the 2/3-rule mask is folded into the flux and pressure
    derivative multipliers.  Raises NonPositiveDensity when min(1+n) <= 0,
    where the pressure is undefined.
    """
    if float(np.min(1.0 + n)) <= 0.0:
        raise NonPositiveDensity("fluid rates: min(1+n) <= 0")
    jhat = grid._fft(j)
    d_n = -grid._ifft(sum(grid._ik[a] * jhat[a] for a in range(grid.dim)))
    vhat = grid._fft(v)
    div_v_hat = sum(grid._ik[a] * vhat[a] for a in range(grid.dim))
    p1hat = grid._fft(pressure_minus_one(n, params.gamma))
    d_j = np.empty_like(j)
    for a in range(grid.dim):
        acc = -grid._ik_dealias[a] * p1hat
        acc += params.mu * (-grid._k2) * vhat[a]  # viscous: mu*lap(v) + (mu+lam)*grad(div v)
        acc += (params.mu + params.lam) * grid._ik[a] * div_v_hat
        for b in range(grid.dim):
            acc -= grid._ik_dealias[b] * grid._fft(j[a] * v[b])
        d_j[a] = grid._ifft(acc)
    return d_n, d_j


def rhs(state: State, params: FluidParams, floor: float = VACUUM_FLOOR) -> StateRates:
    """Semi-discrete rates of the coupled system in conservative variables."""
    g = state.grid
    u, flag_u = primitive_velocity(state.rho, state.m, floor)
    v, _ = primitive_velocity(1.0 + state.n, state.j, floor)

    mhat = g._fft(state.m)
    d_rho = -g._ifft(sum(g._ik[a] * mhat[a] for a in range(g.dim)))
    d_m = np.empty_like(state.m)
    for a in range(g.dim):
        acc = np.zeros(g.shape, dtype=complex)
        for b in range(g.dim):
            acc -= g._ik_dealias[b] * g._fft(state.m[a] * u[b])
        d_m[a] = g._ifft(acc)
    d_n, d_j = fluid_rates(g, state.n, state.j, v, params)
    if params.drag_on:
        # computed once so the two contributions cancel exactly pointwise
        drag = g.dealias(state.rho * (u - v))
        d_m -= drag
        d_j += drag
    return StateRates(d_rho, d_m, d_n, d_j, floor_active=flag_u)


def sound_speed_max(n: np.ndarray, params: FluidParams) -> float:
    """Grid max of sqrt(gamma * (1+n)**(gamma-1))."""
    n1_max = float(np.max(1.0 + n))
    if float(np.min(1.0 + n)) <= 0.0:
        raise NonPositiveDensity("sound speed undefined: min(1+n) <= 0")
    return float(np.sqrt(params.gamma * n1_max ** (params.gamma - 1.0)))


def max_speed(state: State, params: FluidParams, floor: float = VACUUM_FLOOR) -> float:
    """Fastest advective signal speed: max(|u|, |v|) + max sound speed."""
    u, _ = primitive_velocity(state.rho, state.m, floor)
    v, _ = primitive_velocity(1.0 + state.n, state.j, floor)
    umax = float(np.max(np.sqrt(np.sum(u * u, axis=0))))
    vmax = float(np.max(np.sqrt(np.sum(v * v, axis=0))))
    return max(umax, vmax) + sound_speed_max(state.n, params)


def grad_velocity_max(state: State, floor: float = VACUUM_FLOOR) -> float:
    """Grid max of the Frobenius norm of grad(u) (steepening monitor)."""
    return gradient_norm_max(state.grid, primitive_velocity(state.rho, state.m, floor)[0])


def gradient_norm_max(grid: Grid, u: np.ndarray) -> float:
    """Grid max of the Frobenius norm of grad(u) for a given velocity field."""
    total = np.zeros(grid.shape)
    for a in range(grid.dim):
        grad = grid.gradient(u[a])
        total += np.sum(grad * grad, axis=0)
    return float(np.sqrt(np.max(total)))
