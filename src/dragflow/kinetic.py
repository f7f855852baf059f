"""One-dimensional particle reference solver for the two-phase system.

Particles discretize the phase-space density of the dispersed phase; each
carries a position, a velocity, and a weight.  Characteristics are
x' = xi, xi' = v(x) - xi with the fluid velocity interpolated linearly to
the particles; moments come back to the grid by cloud-in-cell deposition
(the consistent pair, so the exchanged momentum telescopes exactly).  The
carrier fluid is advanced with the grid-only solver's fluid rates and
guarded Runge-Kutta advance, with the coupling force -(rho_dep * v - m_dep)
built from the deposited moments.  Alternation is by Strang splitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dynamics import FluidParams, fluid_rates, sound_speed_max
from .grid import TWO_PI, Grid
from .stepping import (
    IntegrationError,
    Status,
    TimeConfig,
    _pin_malloc_thresholds,
    _rk_advance,
    cfl_dt,
)


class KineticError(ValueError):
    pass


@dataclass
class ParticleEnsemble:
    x: np.ndarray
    xi: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self._check(self.x, self.xi, self.w)
        if self.w.size and not float(np.min(self.w)) > 0.0:
            raise KineticError("weights must be positive")

    def _check(self, *arrays: np.ndarray) -> None:
        if self.x.ndim != 1 or not (self.x.shape == self.xi.shape == self.w.shape):
            raise KineticError("x, xi, w must be equal-length 1-D arrays")
        if not all(np.isfinite(a).all() for a in arrays):
            raise KineticError("x, xi, w must be finite")

    def moved(self, x: np.ndarray, xi: np.ndarray) -> "ParticleEnsemble":
        """The same particles at new positions and velocities.  The weights
        are this ensemble's, already checked, so only x and xi are."""
        ens = object.__new__(ParticleEnsemble)
        ens.x, ens.xi, ens.w = x, xi, self.w
        ens._check(x, xi)
        return ens

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def total_mass(self) -> float:
        return float(np.sum(self.w))

    def total_momentum(self) -> float:
        return float(np.sum(self.w * self.xi))


@dataclass
class MomentSet:
    """Grid moments of the ensemble (1-D fields of length grid.n)."""

    rho: np.ndarray
    m: np.ndarray
    theta_rho: np.ndarray  # 0.5 * deposited variance (rho * theta)
    sigma_hat: np.ndarray  # second central moment (pressure tensor, 1-D scalar)
    q_hat: np.ndarray  # 0.5 * third central moment (energy flux)


def _cell(x: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    return kernels.cell_index(x, grid.dx, grid.n)


def deposit(ens: ParticleEnsemble, grid: Grid, cell=None) -> MomentSet:
    """Cloud-in-cell moments; mass and momentum deposit exactly.  ``cell``
    is the cell index of ``ens.x``, when the caller already has it."""
    if grid.dim != 1:
        raise KineticError("particle solver is 1-D only")
    cell = cell or _cell(ens.x, grid)
    s0, s1, s2, s3 = kernels.deposit_moments(*cell, ens.xi, ens.w, grid.n, 4)
    rho = s0 / grid.dx
    m = s1 / grid.dx
    safe = np.where(s0 > 0.0, s0, 1.0)
    u = np.where(s0 > 0.0, s1 / safe, 0.0)
    # central moments from the raw sums, per cell
    theta_rho = 0.5 * (s2 - 2.0 * u * s1 + u * u * s0) / grid.dx
    theta_rho = np.maximum(theta_rho, 0.0)  # clip round-off negatives
    sigma_hat = 2.0 * theta_rho
    q_hat = 0.5 * (s3 - 3.0 * u * s2 + 3.0 * u * u * s1 - u**3 * s0) / grid.dx
    return MomentSet(rho, m, theta_rho, sigma_hat, q_hat)


def push(
    ens: ParticleEnsemble, v_values: np.ndarray, dt: float, grid: Grid, cell=None
) -> ParticleEnsemble:
    """Midpoint (RK2) update of the characteristics, v frozen in time.
    ``cell`` is the cell index of ``ens.x``, when the caller already has it."""
    if dt <= 0.0:
        raise KineticError("dt must be positive")
    cell = cell or _cell(ens.x, grid)
    xi_mid = ens.xi + 0.5 * dt * (kernels.gather(v_values, *cell) - ens.xi)
    v_mid = kernels.gather(v_values, *_cell(kernels.wrap(ens.x + 0.5 * dt * ens.xi), grid))
    x_new = kernels.wrap(ens.x + dt * xi_mid)
    xi_new = ens.xi + dt * (v_mid - xi_mid)
    return ens.moved(x_new, xi_new)


@dataclass(frozen=True)
class ClosureGap:
    theta_mass: float  # integral of rho*theta (raw measure)
    q_abs: float  # integral of |q_hat|
    total: float


def closure_gap(moments: MomentSet, grid: Grid) -> ClosureGap:
    """Size of the moment terms a single-velocity closure discards."""
    theta_mass = float(np.sum(moments.theta_rho)) * grid.dx
    q_abs = float(np.sum(np.abs(moments.q_hat))) * grid.dx
    return ClosureGap(theta_mass, q_abs, theta_mass + q_abs)


def monokinetic_ensemble(
    grid: Grid,
    rho_values: np.ndarray,
    u_values: np.ndarray,
    n_particles: int,
) -> ParticleEnsemble:
    """Deterministic quiet start: equal weights, positions from the
    inverse cumulative mass of rho, velocities sampled from u.  The
    particles come as the four quarters of the position-sorted start,
    interleaved: sorted ranks 0, q, 2q, 3q, 1, q + 1, ... with
    q = ceil(P / 4).  Consecutive particles then deposit a quarter of the
    domain apart, and the deposit's bincount does not add into one bin
    over and over: a two-moment deposit of 100k particles costs 40% less.

    The inverse CDF is built on a 16-fold trigonometric upsampling of rho,
    so the start is reproducible and free of sampling noise.
    """
    if grid.dim != 1:
        raise KineticError("particle solver is 1-D only")
    if float(np.min(rho_values)) <= 0.0:
        raise KineticError("quiet start requires strictly positive rho")
    if n_particles < 1:
        raise KineticError(f"n_particles must be at least 1, got {n_particles}")
    n_fine = 16 * grid.n
    rho_fine = np.fft.irfft(np.fft.rfft(rho_values), n_fine) * (n_fine / grid.n)
    u_fine = np.fft.irfft(np.fft.rfft(u_values), n_fine) * (n_fine / grid.n)
    dxf = TWO_PI / n_fine
    x_fine = np.arange(n_fine + 1) * dxf
    cdf = np.concatenate(([0.0], np.cumsum(rho_fine) * dxf))
    total = cdf[-1]
    order = np.argsort(np.arange(n_particles) % -(-n_particles // 4), kind="stable")
    targets = (order + 0.5) / n_particles * total
    del order  # freed before the positions are made: the solve's peak RSS is 0.1 MB lower
    x = np.interp(targets, cdf, x_fine) % TWO_PI
    u_ext = np.concatenate((u_fine, u_fine[:1]))
    xi = np.interp(x, x_fine, u_ext)
    mass = float(np.mean(rho_values)) * TWO_PI
    w = np.full(n_particles, mass / n_particles)
    return ParticleEnsemble(x, xi, w)


@dataclass
class KineticSample:
    t: float
    moments: MomentSet
    n: np.ndarray
    j: np.ndarray


@dataclass
class KineticRunResult:
    ensemble: ParticleEnsemble
    n: np.ndarray
    j: np.ndarray
    t_final: float
    steps: int
    samples: list[KineticSample]
    status: Status


def kinetic_run(
    ens: ParticleEnsemble,
    n0: np.ndarray,
    j0: np.ndarray,
    grid: Grid,
    params: FluidParams,
    cfg: TimeConfig,
) -> KineticRunResult:
    """Strang-split coupled advance: half particle push, fluid step with
    frozen deposited moments, half push with the updated fluid velocity.

    The fluid step is the grid solver's guarded advance (``cfg.scheme``,
    the mean(n) re-projection and the finiteness check) on (n, j) with the
    deposited drag m_dep - rho_dep * v, dealiased, as a source, followed by
    the min(1+n) check.  With an empty ensemble this reduces to the plain
    compressible solver.  A step that leaves the admissible set ends the run
    early: the result holds the last good state and the stop status.
    """
    if grid.dim != 1:
        raise KineticError("kinetic_run is 1-D only")
    _pin_malloc_thresholds()
    # the fluid unknowns as one stack [n, j], the layout of fluid_rates' output
    y = np.empty((2, grid.n))
    y[0] = n0 - np.mean(n0)
    y[1:] = j0
    t = 0.0
    steps = 0
    samples: list[KineticSample] = [
        KineticSample(0.0, deposit(ens, grid), y[0].copy(), y[1:].copy())
    ]
    status = Status.COMPLETED
    t_end = cfg.t_end
    eps = 1e-12 * max(1.0, t_end)
    # each position set is indexed once (half's index serves the deposit and
    # the second half-push), and an index is dropped after its last use
    cell = _cell(ens.x, grid)
    # the fluid velocity of y, made once per step: it sets dt, drives the
    # pushes on either side of the fluid step and serves its first stage
    v = y[1:] / (1.0 + y[0])

    while t < t_end - eps:
        try:
            speed = float(np.max(np.abs(v))) + sound_speed_max(y[0], params)
            if ens.size:
                speed = max(speed, float(np.max(np.abs(ens.xi))))
            dt = min(cfl_dt(speed, grid.dx, params, cfg), t_end - t)

            half = push(ens, v[0], 0.5 * dt, grid, cell) if ens.size else ens
            cell = _cell(half.x, grid)
            # the drag reads mass and momentum only
            rho_dep, m_dep = kernels.deposit_moments(*cell, half.xi, half.w, grid.n, 2) / grid.dx

            def rates(y_s):
                v_s = v if y_s is y else y_s[1:] / (1.0 + y_s[0])
                drag = m_dep - rho_dep * v_s if params.drag_on else None
                return fluid_rates(grid, y_s[0], y_s[1:], v_s, params, drag)

            y_new, _ = _rk_advance(y, rates, dt, cfg.scheme)
            n1_min = float(np.min(1.0 + y_new[0]))
            if n1_min <= 0.0:
                raise IntegrationError(Status.FLUID_VACUUM_BREACH, f"min(1+n) = {n1_min:.3e}")
        except IntegrationError as err:
            status = err.status
            break
        y = y_new
        v = y[1:] / (1.0 + y[0])
        ens = push(half, v[0], 0.5 * dt, grid, cell) if ens.size else half
        del half, cell
        cell = _cell(ens.x, grid)
        t += dt
        steps += 1
        if steps % cfg.record_every == 0 or t >= t_end - eps:
            samples.append(KineticSample(t, deposit(ens, grid, cell), y[0].copy(), y[1:].copy()))

    return KineticRunResult(ens, y[0], y[1:], t, steps, samples, status)


# ---------------------------------------------------------------------------
# side-by-side comparison against the grid-only solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareOutcome:
    diff_rho: float
    diff_m: float
    pert_norm: float
    rel_diff: float
    theta_mass: float
    q_abs: float


def compare_once(
    grid: Grid,
    state0,
    params: FluidParams,
    cfg: TimeConfig,
    n_particles: int,
) -> CompareOutcome:
    """Run both solvers from matched data and measure L2 differences.

    The single-velocity start samples the dispersed phase of ``state0``;
    differences of (rho, m) at t_end are reported relative to the L2 size
    of the grid solution's fluctuation about its mean.
    """
    from .stepping import run as hydro_run

    hydro = hydro_run(state0, params, cfg)
    if hydro.status != Status.COMPLETED:
        raise KineticError(f"grid reference run stopped: {hydro.status.value}")
    u0 = state0.m[0] / state0.rho
    ens = monokinetic_ensemble(grid, state0.rho, u0, n_particles)
    kin = kinetic_run(ens, state0.n, state0.j, grid, params, cfg)
    if kin.status != Status.COMPLETED:
        raise KineticError(f"particle run stopped: {kin.status.value}")
    moments = kin.samples[-1].moments  # the last step always records

    h = hydro.final_state
    diff_rho = grid.norms(moments.rho - h.rho).l2
    diff_m = grid.norms(moments.m - h.m[0]).l2
    pert = math.sqrt(
        grid.norms(h.rho - np.mean(h.rho)).l2 ** 2
        + grid.norms(h.m[0] - np.mean(h.m[0])).l2 ** 2
    )
    gap = closure_gap(moments, grid)
    rel = (diff_rho + diff_m) / pert if pert > 0 else math.inf
    return CompareOutcome(diff_rho, diff_m, pert, rel, gap.theta_mass, gap.q_abs)
