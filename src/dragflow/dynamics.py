"""Constitutive laws and the semi-discrete right-hand side.

The evolved state is conservative: particle density rho, particle momentum
m = rho*u, fluid density perturbation n (the fluid density is 1+n, with
mean(n) = 0), and fluid momentum j = (1+n)*v, kept in one stack laid out
[n, j, rho, m], the layout of the rates ``rhs`` returns.  Primitive
velocities are derived.  Quadratic and cubic products feeding flux
divergences, the pressure, and the drag are dealiased with the 2/3 rule so
that the semi-discrete conservation defects are pure round-off.

The rates are assembled on the half spectrum of the grid's real
transforms: ``rhs`` stacks every field and product it needs into one
forward transform call and brings all rates back in one inverse call.
The fluxes m u and j v are symmetric, so only their pairs a <= b are
transformed.  The diagnostics read the same spectrum, and leave it on the
state for the first stage of its step.  The particle solver advances its
carrier fluid with ``rhs`` too, on a stack whose rho and m rows hold the
deposited moments.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Grid

# the particle velocity is m / max(rho, VACUUM_FLOOR), and a step that takes
# min(rho) below it stops the run: a numerical guard, not a model parameter
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


def _field(rows):
    """A State attribute for the stack rows ``rows(dim)``; assigning to it
    writes into the stack and clears the state's primitives and spectrum."""

    def get(self):
        return self.y[rows(self.grid.dim)]

    def put(self, value):
        self.y[rows(self.grid.dim)] = value
        self.primitives = self.spectrum = None

    return property(get, put)


class State:
    """The four unknowns at one instant, sharing one grid.

    They live in one contiguous stack ``y`` of shape (2 + 2*dim,) +
    grid.shape, laid out [n, j_1..j_d, rho, m_1..m_d]: the order in which
    ``rhs`` returns the rates, so a Runge-Kutta stage is one scale-and-add
    over the stack.  ``rho``, ``m``, ``n`` and ``j`` are views into it, and
    assigning one writes into the stack.

    ``primitives`` holds the state's ``Primitives`` when ``step`` made the
    state (or ``run`` derived them for its initial state), for its dt, its
    steepening guard, its evaluation and the first stage of the next step;
    that stage drops them.  ``spectrum`` is ``(params, hat)`` once
    ``Recorder.evaluate`` has read the state: ``hat`` is the forward
    transform of the stack ``rhs`` makes for ``params`` (see
    ``rate_stack``), which the first stage of the next step takes in place
    of its own, and drops.  Writing into a view refreshes neither, so a
    caller that changes a state in place clears both first.
    """

    __slots__ = ("grid", "y", "primitives", "spectrum")

    def __init__(self, grid: Grid, rho, m, n, j):
        vshape = (grid.dim,) + grid.shape
        if np.shape(rho) != grid.shape or np.shape(n) != grid.shape:
            raise DynamicsError("scalar fields must match the grid shape")
        if np.shape(m) != vshape or np.shape(j) != vshape:
            raise DynamicsError("vector fields must have shape (dim,) + grid shape")
        self.grid = grid
        self.y = np.empty((2 + 2 * grid.dim,) + grid.shape)
        self.n, self.j, self.rho, self.m = n, j, rho, m

    @classmethod
    def of(cls, grid: Grid, y: np.ndarray) -> "State":
        """The state whose stack is ``y`` itself (no copy)."""
        state = cls.__new__(cls)
        state.grid, state.y, state.primitives, state.spectrum = grid, y, None, None
        return state

    n = _field(lambda d: 0)
    j = _field(lambda d: slice(1, 1 + d))
    rho = _field(lambda d: 1 + d)
    m = _field(lambda d: slice(2 + d, None))

    def copy(self) -> "State":
        return State.of(self.grid, self.y.copy())

    def nonfinite(self) -> str | None:
        """The first of rho, m, n, j holding a non-finite value, or None."""
        if np.isfinite(self.y).all():
            return None
        return next(f for f in ("rho", "m", "n", "j") if not np.isfinite(getattr(self, f)).all())

    def validate(self) -> None:
        name = self.nonfinite()
        if name is not None:
            raise DynamicsError(f"non-finite values in {name}")
        if float(np.min(self.rho)) < 0.0:
            raise DynamicsError("rho must be nonnegative")
        if float(np.min(1.0 + self.n)) <= 0.0:
            raise NonPositiveDensity("fluid density 1+n must be positive")
        if abs(float(np.mean(self.n))) > 1e-8:
            raise DynamicsError(f"mean(n) = {np.mean(self.n):.3e} exceeds 1e-08")

    def min_rho(self) -> float:
        return float(np.min(self.rho))


class Primitives(NamedTuple):
    """What every use of a state derives first: the velocities u and v,
    min(1+n), and whether min(rho) is below VACUUM_FLOOR."""

    u: np.ndarray
    v: np.ndarray
    n1_min: float
    floor: bool


def pressure_minus_one(n: np.ndarray, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """(1+n)**gamma - 1, written into ``out`` when it is given."""
    # expm1/log1p keeps absolute error at the scale of the deviation,
    # which late-time balance residuals depend on.
    out = np.log1p(n, out=out)
    out *= gamma
    return np.expm1(out, out=out)


def pressure_deviation(n: np.ndarray, gamma: float) -> np.ndarray:
    """(1+n)**gamma - 1 - gamma*n, the quadratic part of the pressure."""
    return np.expm1(gamma * np.log1p(n)) - gamma * n


def primitive_velocity(
    density: np.ndarray, momentum: np.ndarray, low: float | None = None
) -> tuple[np.ndarray, bool]:
    """momentum / max(density, VACUUM_FLOOR); flags whether the floor engaged.
    ``low`` is min(density), when the caller already has it."""
    if low is None:
        low = float(density.min())
    if not low >= VACUUM_FLOOR:  # the floor engages, or density holds a nan
        density = np.maximum(density, VACUUM_FLOOR)
    return momentum / density[None], low < VACUUM_FLOOR


def primitives(state: State) -> Primitives:
    """The state's Primitives: the ones ``step`` left on it, or new ones."""
    if state.primitives is not None:
        return state.primitives
    d, y = state.grid.dim, state.y
    n1 = 1.0 + y[0]
    n1_min = float(n1.min())
    u, floor = primitive_velocity(y[1 + d], y[2 + d :])
    v, _ = primitive_velocity(n1, y[1 : 1 + d], n1_min)
    return Primitives(u, v, n1_min, floor)


@functools.cache
def _pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (a, b) with a <= b: the distinct entries of a symmetric flux."""
    return tuple((a, b) for a in range(dim) for b in range(a, dim))


class _Operators(NamedTuple):
    """The Fourier multipliers of the rates for one (grid, params)."""

    flux_index: tuple[tuple[int, ...], ...]  # [a][b]: where F_ab sits among the pairs
    neg_ik: list[np.ndarray]  # -i k_a: the divergences of j and m
    neg_ik_dealias: list[np.ndarray]  # -i k_a with the 2/3 rule: pressure and fluxes
    viscous: np.ndarray  # mu * (-|k|^2)
    grad_div: list[np.ndarray]  # (mu + lam) * i k_a


def _operators(grid: Grid, params: FluidParams) -> _Operators:
    """Built at the first call for a (grid, params) and kept on the grid.
    Each table is the left factor of a product the rates would otherwise
    form per call; a negated table gives the negated product exactly."""
    # the last params object seen is checked by identity first, so a repeat
    # call runs no Python-level __hash__/__eq__; equal params share one entry
    last = grid._derived.get(_operators)
    if last is not None and last[0] is params:
        return last[1]
    ops = grid._derived.get(params)
    if ops is None:
        d = grid.dim
        pairs = _pairs(d)
        ops = _Operators(
            tuple(tuple(pairs.index((min(a, b), max(a, b))) for b in range(d)) for a in range(d)),
            [-ik for ik in grid._ik],
            [-ik for ik in grid._ik_dealias],
            params.mu * (-grid._k2),
            [(params.mu + params.lam) * ik for ik in grid._ik],
        )
        grid._derived[params] = ops
    grid._derived[_operators] = (params, ops)
    return ops


def _dot(ops: list[np.ndarray], fields: np.ndarray, rows, out: np.ndarray | None = None):
    """sum_a ops[a] * fields[rows[a]], added from left to right into ``out``
    (a new array when it is None).  With ops -i k_a it is minus a divergence."""
    out = np.multiply(ops[0], fields[rows[0]], out=out)
    for op, row in zip(ops[1:], rows[1:]):
        out += op * fields[row]
    return out


def rate_stack(y: np.ndarray, u: np.ndarray, v: np.ndarray, gamma: float, drag: bool) -> np.ndarray:
    """The physical stack ``rhs`` transforms for the state stack ``y`` with
    velocities u and v: the rows read in full, j, v and m, then from row
    3*dim the band rows p - 1, the pairs j_a v_b, the pairs m_a u_b and,
    when ``drag``, rho*(u - v)."""
    d = u.shape[0]
    pairs = _pairs(d)
    npairs = len(pairs)
    band, flux_at, drag_at = 3 * d, 3 * d + 1 + npairs, 3 * d + 1 + 2 * npairs
    j, m = y[1 : 1 + d], y[2 + d :]
    phys = np.empty((drag_at + d * drag,) + u.shape[1:])
    phys[:d], phys[d : 2 * d], phys[2 * d : band] = j, v, m
    pressure_minus_one(y[0], gamma, phys[band])
    for k, (a, b) in enumerate(pairs):
        np.multiply(j[a], v[b], out=phys[band + 1 + k])
        np.multiply(m[a], u[b], out=phys[flux_at + k])
    if drag:
        np.multiply(y[1 + d], u - v, out=phys[drag_at:])
    return phys


def rhs(state: State, params: FluidParams) -> np.ndarray:
    """Semi-discrete rates of the coupled system in conservative variables,
    stacked as a state is: [d_n, d_j_1..d_j_d, d_rho, d_m_1..d_m_d].

    Every field and product the rates need (``rate_stack``) is transformed
    in one forward call, the ones read only through the 2/3 rule (the
    pressure, the fluxes and the drag) as band rows; the 2 + 2*dim rate
    spectra are assembled on the half spectrum and brought back in one
    inverse call.  A state that ``Recorder.evaluate`` read for these params
    carries that transform already, and the call takes it instead of
    making its own.  The state's primitives and spectrum are dropped once
    read, so the ones left on a state serve one stage.
    Raises NonPositiveDensity when min(1+n) <= 0.
    """
    g = state.grid
    d = g.dim
    ops = _operators(g, params)
    pairs = _pairs(d)
    # step sets each stage's primitives first: reading them in place saves
    # the Python call that rate_stack adds to a stage
    u, v, n1_min, _ = state.primitives or primitives(state)
    spectrum = state.spectrum
    state.primitives = state.spectrum = None
    if n1_min <= 0.0:
        raise NonPositiveDensity("fluid rates: min(1+n) <= 0")

    # the spectrum's rows: j, v, m, then p - 1, the pairs j_a v_b, the pairs
    # m_a u_b and the drag, as rate_stack lays them out
    npairs = len(pairs)
    band, flux_at, drag_at = 3 * d, 3 * d + 1 + npairs, 3 * d + 1 + 2 * npairs
    if spectrum is not None and spectrum[0] is params:
        hat = spectrum[1]
        del spectrum, u, v
    else:
        phys = rate_stack(state.y, u, v, params.gamma, params.drag_on)
        del spectrum, u, v  # each work array is dropped once used: the 3-D transient footprint
        hat = g._fft(phys, band)
        del phys

    # rate spectra: d_n, d_j (dim), then d_rho, d_m (dim)
    out = np.empty((2 + 2 * d,) + g._half_shape, dtype=complex)
    _dot(ops.neg_ik, hat, range(d), out[0])
    div_v_hat = _dot(g._ik, hat, range(d, 2 * d))
    for a in range(d):
        # pressure, viscous mu*lap(v) + (mu+lam)*grad(div v), then the j v flux
        acc = out[1 + a]
        np.multiply(ops.neg_ik_dealias[a], hat[band], out=acc)
        acc += ops.viscous * hat[d + a]
        acc += ops.grad_div[a] * div_v_hat
        # the flux sum is formed on its own, then added: in 2-D and 3-D,
        # adding its terms into acc one by one would round differently
        acc += _dot(ops.neg_ik_dealias, hat[band + 1 : flux_at], ops.flux_index[a])
    del div_v_hat
    _dot(ops.neg_ik, hat[2 * d : band], range(d), out[1 + d])
    for a in range(d):
        _dot(ops.neg_ik_dealias, hat[flux_at:drag_at], ops.flux_index[a], out[2 + d + a])
    if params.drag_on:
        # one dealiased array, applied with both signs
        drag_hat = g._dealias_keep * hat[drag_at:]
        out[2 + d :] -= drag_hat
        out[1 : 1 + d] += drag_hat
    del hat
    return g._ifft(out)


def _sound_speed(n1_min: float, n1_max: float, params: FluidParams) -> float:
    """sqrt(gamma * n1_max**(gamma-1)), for min(1+n) = n1_min and max(1+n) = n1_max."""
    if n1_min <= 0.0:
        raise NonPositiveDensity("sound speed undefined: min(1+n) <= 0")
    # np.power, not **: on some inputs the two differ in the last bit.  An
    # overflow reads inf and stops the run; only a power that may overflow
    # pays for the errstate that keeps it quiet
    exponent = params.gamma - 1.0
    if exponent * math.log(n1_max) < 700.0:
        return math.sqrt(params.gamma * float(np.power(n1_max, exponent)))
    with np.errstate(over="ignore"):
        return math.sqrt(params.gamma * float(np.power(n1_max, exponent)))


def sound_speed_max(n: np.ndarray, params: FluidParams) -> float:
    """Grid max of sqrt(gamma * (1+n)**(gamma-1))."""
    # 1 + max(n) is max(1 + n) bit for bit, because rounding is monotone
    return _sound_speed(1.0 + float(np.min(n)), 1.0 + float(np.max(n)), params)


def max_speed(state: State, params: FluidParams) -> float:
    """Fastest advective signal speed: max(|u|, |v|) + max sound speed."""
    u, v, n1_min, _ = primitives(state)
    # sqrt is monotone and correctly rounded: sqrt(max) is max(sqrt) exactly
    umax = math.sqrt((u * u).sum(axis=0).max())
    vmax = math.sqrt((v * v).sum(axis=0).max())
    return max(umax, vmax) + _sound_speed(n1_min, 1.0 + float(state.y[0].max()), params)


def grad_velocity_max(state: State) -> float:
    """Grid max of the Frobenius norm of grad(u) (steepening monitor)."""
    grad = state.grid.gradient(primitives(state).u)
    return math.sqrt((grad * grad).sum(axis=(0, 1)).max())
