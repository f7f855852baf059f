"""One-dimensional particle reference solver for the two-phase system.

Particles discretize the phase-space density of the dispersed phase; each
carries a position, a velocity, and a weight; on the step path a position
is a cell and an offset in it (see ``kernels``).  Characteristics are
x' = xi, xi' = v(x) - xi with the fluid velocity interpolated linearly to
the particles; moments come back to the grid by cloud-in-cell deposition
(the consistent pair, so the exchanged momentum telescopes exactly).  The
carrier fluid is advanced with the grid-only solver's rates and guarded
Runge-Kutta advance: ``rhs`` on the stack [n, j, rho_dep, m_dep], with the
deposited moments frozen over the step, so the coupling force is the grid
solver's drag rho_dep * (u_dep - v).  Alternation is by Strang splitting.
``kinetic_run`` pushes the particles block by block into buffers it owns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dynamics import FluidParams, State, rhs, sound_speed_max
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
        if self.x.ndim != 1 or not (self.x.shape == self.xi.shape == self.w.shape):
            raise KineticError("x, xi, w must be equal-length 1-D arrays")
        if not all(np.isfinite(a).all() for a in (self.x, self.xi, self.w)):
            raise KineticError("x, xi, w must be finite")
        if self.w.size and not float(np.min(self.w)) > 0.0:
            raise KineticError("weights must be positive")

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
    q_hat: np.ndarray  # 0.5 * third central moment (energy flux)


# about the particles per block of a push: its temporaries are a block
# long, and a block's passes run while its operands are still in cache
BLOCK = 32768


def deposit(ens: ParticleEnsemble, grid: Grid, particles=None) -> MomentSet:
    """Cloud-in-cell moments; mass and momentum deposit exactly.
    ``particles`` is the ensemble's (i0, frac, xi) in cell coordinates, when
    the caller has them; only the weights are then read from ``ens``."""
    if grid.dim != 1:
        raise KineticError("particle solver is 1-D only")
    particles = particles or (*kernels.cell_index(ens.x, grid.dx, grid.n), ens.xi)
    s0, s1, s2, s3 = kernels.deposit_moments(*particles, ens.w, grid.n, 4)
    rho = s0 / grid.dx
    m = s1 / grid.dx
    safe = np.where(s0 > 0.0, s0, 1.0)
    u = np.where(s0 > 0.0, s1 / safe, 0.0)
    # central moments from the raw sums, per cell
    theta_rho = 0.5 * (s2 - 2.0 * u * s1 + u * u * s0) / grid.dx
    theta_rho = np.maximum(theta_rho, 0.0)  # clip round-off negatives
    q_hat = 0.5 * (s3 - 3.0 * u * s2 + 3.0 * u * u * s1 - u**3 * s0) / grid.dx
    return MomentSet(rho, m, theta_rho, q_hat)


def push(particles, v_values: np.ndarray, dt: float, grid: Grid, out=None):
    """Midpoint (RK2) update of the characteristics, v frozen in time.

    ``particles`` is a triple (i0, frac, xi) of cells, offsets and
    velocities (see ``kernels``), only read.  The moved particles' triple
    goes into ``out`` when given, else into new arrays: an offset plus its
    displacement in cells gives, by ``kernels.move``, the cell and offset
    of the midpoint and of the end.  A new velocity that is not finite
    raises ``KineticError``; the offsets stay finite while it is finite.

    The particles go in round(size / BLOCK) blocks (at least one; none when
    there are no particles) of sizes that differ by less than the number of
    blocks.  The temporaries are two block-long arrays and the block's
    output slots, and the arithmetic is the whole-array update's, bit for
    bit.
    """
    if dt <= 0.0:
        raise KineticError("dt must be positive")
    if out is None:
        out = tuple(np.empty_like(a) for a in particles)
    h = 0.5 * dt
    count = particles[2].size
    # blocks of nearly equal sizes: no short last block pays a whole
    # block's call overhead
    size = -(-count // max(1, round(count / BLOCK)))
    mid_buffer, i_mid_buffer = np.empty(size), np.empty(size, np.int64)
    for lo in range(0, count, max(1, size)):
        b = slice(lo, lo + size)
        i0, frac, xi = (a[b] for a in particles)
        i_new, frac_new, xi_new = (a[b] for a in out)
        xi_mid, i_mid = mid_buffer[: xi.size], i_mid_buffer[: xi.size]
        # xi_mid = xi + h * (v(x) - xi)
        kernels.gather(v_values, i0, frac, out=xi_mid)
        xi_mid -= xi
        xi_mid *= h
        xi_mid += xi
        # v_mid = v(x + h * xi) into xi_new; frac_new holds the midpoint offset
        np.multiply(xi, h / grid.dx, out=frac_new)
        frac_new += frac
        kernels.move(i0, frac_new, grid.n, out=i_mid)
        kernels.gather(v_values, i_mid, frac_new, out=xi_new)
        # xi_new = xi + dt * (v_mid - xi_mid)
        xi_new -= xi_mid
        xi_new *= dt
        xi_new += xi
        if not (math.isfinite(xi_new.min()) and math.isfinite(xi_new.max())):
            raise KineticError("particle velocities must stay finite")
        # x_new = x + dt * xi_mid, as a cell and an offset
        np.multiply(xi_mid, dt / grid.dx, out=frac_new)
        frac_new += frac
        kernels.move(i0, frac_new, grid.n, out=i_new)
    return out


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

    One stack, the 1-D state [n, j, rho_dep, m_dep], holds the fluid and
    the step's deposited moments (the t = 0 deposit at the start, which
    ``State.validate`` checks as ``run`` does).  The fluid step is the grid
    solver's guarded advance (``cfg.scheme``, the mean(n) re-projection and
    the finiteness check) with ``rhs`` as rates, rows 2-3 zeroed so the
    deposit stays frozen bit for bit; the min(1+n) check follows.  With an
    empty ensemble this reduces to the plain compressible solver.  A step
    that leaves the admissible set ends the run early: the result holds the
    last good state and the stop status.

    The run moves the particles in cell coordinates, as triples
    (i0, frac, xi), through two triples of buffers it owns.  The first
    starts as the cell index of ``ens.x`` (with ``ens.xi``, read in place,
    as step 1's velocities) and holds the pushed particles; the second holds
    the half-pushed ones, which the step's deposit reads.  A fluid step that
    fails leaves the first triple, the last good particles, untouched, and
    the caller's arrays are never written.  Positions are formed only for
    the result's ensemble.
    """
    if grid.dim != 1:
        raise KineticError("kinetic_run is 1-D only")
    _pin_malloc_thresholds()
    i0, frac = kernels.cell_index(ens.x, grid.dx, grid.n)
    particles = i0, frac, ens.xi
    moments = deposit(ens, grid, particles)
    y = np.empty((4, grid.n))
    y[0] = n0 - np.mean(n0)
    y[1:2] = j0
    y[2], y[3] = moments.rho, moments.m
    State.of(grid, y).validate()
    t = 0.0
    steps = 0
    samples = [KineticSample(0.0, moments, y[0].copy(), y[1:2].copy())]
    status = Status.COMPLETED
    t_end = cfg.t_end
    eps = 1e-12 * max(1.0, t_end)
    # the fluid velocity of y, made once per step: it sets dt and drives the
    # pushes on either side of the fluid step
    v = y[1:2] / (1.0 + y[0])
    pushed = i0, frac, np.empty_like(ens.xi)
    half_pushed = tuple(np.empty_like(a) for a in pushed)

    def rates(y_s):
        k = rhs(State.of(grid, y_s), params)
        k[2:] = 0.0
        return k

    while t < t_end - eps:
        try:
            speed = float(np.max(np.abs(v))) + sound_speed_max(y[0], params)
            if ens.size:
                xi = particles[2]
                speed = max(speed, float(max(xi.max(), -xi.min())))
            dt = min(cfl_dt(speed, grid.dx, params, cfg), t_end - t)

            half = push(particles, v[0], 0.5 * dt, grid, half_pushed)
            # the drag reads mass and momentum only
            y[2:] = kernels.deposit_moments(*half, ens.w, grid.n, 2) / grid.dx

            y_new, _ = _rk_advance(y, rates, dt, cfg.scheme)
            n1_min = float(np.min(1.0 + y_new[0]))
            if n1_min <= 0.0:
                raise IntegrationError(Status.FLUID_VACUUM_BREACH, f"min(1+n) = {n1_min:.3e}")
        except IntegrationError as err:
            status = err.status
            break
        y = y_new
        v = y[1:2] / (1.0 + y[0])
        particles = push(half, v[0], 0.5 * dt, grid, pushed)
        t += dt
        steps += 1
        if steps % cfg.record_every == 0 or t >= t_end - eps:
            moments = deposit(ens, grid, particles)
            samples.append(KineticSample(t, moments, y[0].copy(), y[1:2].copy()))

    x = kernels.position(particles[0], particles[1], grid.dx)
    return KineticRunResult(
        ParticleEnsemble(x, particles[2], ens.w), y[0], y[1:2], t, steps, samples, status
    )


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
