"""Constitutive laws and the semi-discrete right-hand side.

The evolved state is conservative: particle density rho, particle momentum
m = rho*u, fluid density perturbation n (the fluid density is 1+n, with
mean(n) = 0), and fluid momentum j = (1+n)*v.  Primitive velocities are
derived.  Quadratic and cubic products feeding flux divergences, the
pressure, and the drag are dealiased with the 2/3 rule so that the
semi-discrete conservation defects are pure round-off.

The rates are assembled on the half spectrum of the grid's real
transforms: ``rhs`` stacks every field and product it needs into one
forward transform call and brings all rates back in one inverse call.
The fluxes m u and j v are symmetric, so only their pairs a <= b are
transformed.
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


def _pairs(dim: int) -> list[tuple[int, int]]:
    """Index pairs (a, b) with a <= b: the distinct entries of a symmetric flux."""
    return [(a, b) for a in range(dim) for b in range(a, dim)]


def _flux_divergence(grid: Grid, flux_hat: np.ndarray, a: int) -> np.ndarray:
    """Spectrum of -sum_b d_b F_ab, 2/3 rule folded in; flux_hat holds F's pairs."""
    pairs = _pairs(grid.dim)
    return -sum(
        grid._ik_dealias[b] * flux_hat[pairs.index((min(a, b), max(a, b)))]
        for b in range(grid.dim)
    )


def _fluid_stack(
    grid: Grid, n: np.ndarray, j: np.ndarray, v: np.ndarray, gamma: float, extra: int = 0
) -> np.ndarray:
    """Physical fields of the fluid rates: j, v, p - 1 and the pairs j_a v_b,
    followed by ``extra`` unfilled slots.

    Raises NonPositiveDensity when min(1+n) <= 0, where the pressure is
    undefined.
    """
    if float(np.min(1.0 + n)) <= 0.0:
        raise NonPositiveDensity("fluid rates: min(1+n) <= 0")
    d = grid.dim
    pairs = _pairs(d)
    out = np.empty((2 * d + 1 + len(pairs) + extra,) + grid.shape)
    out[:d], out[d : 2 * d], out[2 * d] = j, v, pressure_minus_one(n, gamma)
    for k, (a, b) in enumerate(pairs):
        np.multiply(j[a], v[b], out=out[2 * d + 1 + k])
    return out


def _fluid_spectra(
    grid: Grid, hat: np.ndarray, params: FluidParams, extra: int = 0
) -> np.ndarray:
    """Spectra of d_n and d_j (drag-free) from a transformed ``_fluid_stack``,
    followed by ``extra`` unfilled slots."""
    d = grid.dim
    jhat, vhat, p1hat = hat[:d], hat[d : 2 * d], hat[2 * d]
    flux_hat = hat[2 * d + 1 : 2 * d + 1 + len(_pairs(d))]
    out = np.empty((1 + d + extra,) + grid._half_shape, dtype=complex)
    out[0] = -sum(grid._ik[a] * jhat[a] for a in range(d))
    div_v_hat = sum(grid._ik[a] * vhat[a] for a in range(d))
    for a in range(d):
        # pressure, viscous mu*lap(v) + (mu+lam)*grad(div v), then the j v flux
        acc = -grid._ik_dealias[a] * p1hat
        acc += params.mu * (-grid._k2) * vhat[a]
        acc += (params.mu + params.lam) * grid._ik[a] * div_v_hat
        acc += _flux_divergence(grid, flux_hat, a)
        out[1 + a] = acc
    return out


def fluid_rates(
    grid: Grid, n: np.ndarray, j: np.ndarray, v: np.ndarray, params: FluidParams
) -> tuple[np.ndarray, np.ndarray]:
    """Drag-free fluid rates (d_n, d_j), assembled in spectral space.

    One forward transform call on the stacked fields and products, one
    inverse call on the stacked rates.  Raises NonPositiveDensity when
    min(1+n) <= 0, where the pressure is undefined.
    """
    hat = grid._fft(_fluid_stack(grid, n, j, v, params.gamma))
    rates = grid._ifft(_fluid_spectra(grid, hat, params))
    return rates[0], rates[1:]


def rhs(state: State, params: FluidParams, floor: float = VACUUM_FLOOR) -> StateRates:
    """Semi-discrete rates of the coupled system in conservative variables.

    Every field and product the rates need is transformed in one forward
    call; the 2 + 2*dim rate spectra are assembled on the half spectrum and
    brought back in one inverse call.
    """
    g = state.grid
    d = g.dim
    pairs = _pairs(d)
    u, flag_u = primitive_velocity(state.rho, state.m, floor)
    v, _ = primitive_velocity(1.0 + state.n, state.j, floor)

    # physical stack: the fluid fields, then m, the pairs m_a u_b and rho*(u - v)
    extra = d + len(pairs) + d * params.drag_on
    phys = _fluid_stack(g, state.n, state.j, v, params.gamma, extra)
    m_at = len(phys) - extra
    drag_at = m_at + d + len(pairs)
    phys[m_at : m_at + d] = state.m
    for k, (a, b) in enumerate(pairs):
        np.multiply(state.m[a], u[b], out=phys[m_at + d + k])
    if params.drag_on:
        np.multiply(state.rho, u - v, out=phys[drag_at:])
    hat = g._fft(phys)
    del phys  # each stack is dropped once used: the 3-D transient footprint

    # rate spectra: d_n, d_j (dim), then d_rho, d_m (dim)
    out = _fluid_spectra(g, hat, params, 1 + d)
    out[1 + d] = -sum(g._ik[a] * hat[m_at + a] for a in range(d))
    for a in range(d):
        out[2 + d + a] = _flux_divergence(g, hat[m_at + d : drag_at], a)
    if params.drag_on:
        # one dealiased array, applied with both signs
        drag_hat = g._dealias_keep * hat[drag_at:]
        out[2 + d :] -= drag_hat
        out[1 : 1 + d] += drag_hat
    del hat
    rates = g._ifft(out)
    return StateRates(
        rates[1 + d], rates[2 + d :], rates[0], rates[1 : 1 + d], floor_active=flag_u
    )


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
    grad = grid.gradient(u)
    return float(np.sqrt(np.max(np.sum(grad * grad, axis=(0, 1)))))
