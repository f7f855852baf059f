"""Particle reference solver: kernel and push/deposit oracles, conservation,
and the coupled-run comparison against the grid solver."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dragflow import kernels, kinetic
from dragflow.dynamics import DynamicsError, FluidParams, NonPositiveDensity
from dragflow.grid import TWO_PI, Grid
from dragflow.initial import InitSpec, generate_initial
from dragflow.kinetic import (
    ParticleEnsemble,
    closure_gap,
    compare_once,
    deposit,
    kinetic_run,
    monokinetic_ensemble,
    push,
)
from dragflow.stepping import Status, TimeConfig, run

PARAMS = FluidParams(gamma=2.0, mu=1.0, lam=0.0)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros(3), np.zeros(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros(2), np.zeros(2), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros((2, 2)), np.zeros(4), np.ones(4))
    # non-finite data: total_momentum would read nan, total_mass inf
    for x, xi, w in (
        ([1.0, 2.0], [0.5, np.nan], [1.0, 1.0]),
        ([1.0, 2.0], [0.5, 0.5], [1.0, np.inf]),
        ([1.0, np.inf], [0.5, 0.5], [1.0, 1.0]),
        ([1.0, -np.inf], [0.5, 0.5], [1.0, 1.0]),
    ):
        with pytest.raises(kinetic.KineticError, match="finite"):
            ParticleEnsemble(np.array(x), np.array(xi), np.array(w))


def test_moved_ensemble_checks_positions_and_velocities_only():
    ens = ParticleEnsemble(np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    moved = ens.moved(np.array([1.5, 2.5]), np.array([0.4, 0.6]))
    assert moved.w is ens.w
    for x, xi in (([1.0, np.nan], [0.5, 0.5]), ([1.0, 2.0], [np.inf, 0.5])):
        with pytest.raises(kinetic.KineticError, match="finite"):
            ens.moved(np.array(x), np.array(xi))
    with pytest.raises(kinetic.KineticError, match="equal-length"):
        ens.moved(np.zeros(3), np.zeros(3))


def test_monokinetic_ensemble_rejects_no_particles():
    g = Grid(1, 16)
    with pytest.raises(kinetic.KineticError, match="n_particles"):
        monokinetic_ensemble(g, np.ones(g.shape), np.zeros(g.shape), 0)


# -- kernels ------------------------------------------------------------------


def _deposit_per_particle(i0, frac, xi, w, n_cells, count):
    """The CIC deposit written as a per-particle loop, the oracle for
    ``kernels.deposit_moments``."""
    out = np.zeros((count, n_cells))
    for p in range(i0.shape[0]):
        g = i0[p]
        g1 = g + 1 if g + 1 < n_cells else 0
        left = w[p] * (1.0 - frac[p])
        right = w[p] * frac[p]
        for k in range(count):
            out[k, g] += left
            out[k, g1] += right
            left *= xi[p]
            right *= xi[p]
    return out


def test_deposit_matches_per_particle_loop():
    rng = np.random.default_rng(12)
    n_cells, dx = 32, TWO_PI / 32
    # the last particle sits in the last cell: its right-hand share wraps to cell 0
    x = np.append(rng.uniform(0.0, TWO_PI, 499), TWO_PI - 0.3 * dx)
    xi = rng.standard_normal(500)
    w = rng.uniform(0.5, 1.5, 500)
    i0, frac = kernels.cell_index(x, dx, n_cells)
    assert i0[-1] == n_cells - 1
    for count in (2, 4):
        got = kernels.deposit_moments(i0, frac, xi, w, n_cells, count)
        expected = _deposit_per_particle(i0, frac, xi, w, n_cells, count)
        assert got.shape == (count, n_cells)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_wrap_is_remainder_bit_for_bit():
    rng = np.random.default_rng(5)
    k = np.arange(-50, 51, dtype=float)
    below = np.nextafter(TWO_PI, 0.0)
    a = np.concatenate(
        [
            rng.uniform(-1e3, 1e3, 20000),  # |a| up to 1e3, half of them negative
            -rng.uniform(0.0, TWO_PI, 1000),
            k * TWO_PI,  # exact multiples of 2 pi, negative ones included
            [0.0, -0.0, below, -below, below - TWO_PI, 1e-300, -1e-300, -1e-17, 1e3, -1e3],
        ]
    )
    # |a| up to 1e3 is outside one period of [0, 2 pi): the fmod form
    got = kernels.wrap(a)
    np.testing.assert_array_equal(got.view(np.int64), (a % TWO_PI).view(np.int64))
    assert np.all((got >= 0.0) & (got <= TWO_PI))
    assert kernels.wrap(np.array([])).shape == (0,)


# the edges of the one-period form: -2 pi, the signed zeros and tiny values,
# 2 pi and the doubles next to it, and the largest double below 4 pi
ONE_PERIOD_EDGES = [
    -TWO_PI,
    np.nextafter(-TWO_PI, 0.0),
    -0.0,
    0.0,
    -1e-300,
    1e-300,
    np.nextafter(TWO_PI, 0.0),
    TWO_PI,
    np.nextafter(TWO_PI, 10.0),
    np.nextafter(2.0 * TWO_PI, 0.0),
]


def _assert_wrap_is_remainder(a):
    np.testing.assert_array_equal(kernels.wrap(a).view(np.int64), (a % TWO_PI).view(np.int64))


def test_wrap_one_period_is_remainder_bit_for_bit():
    rng = np.random.default_rng(6)
    edges = np.array(ONE_PERIOD_EDGES)
    _assert_wrap_is_remainder(np.concatenate([rng.uniform(-TWO_PI, 2.0 * TWO_PI, 20000), edges]))
    # each sub-range alone: no fold, a subtraction only, an addition only
    for keep in ((edges >= 0.0) & (edges < TWO_PI), edges >= 0.0, edges < TWO_PI):
        _assert_wrap_is_remainder(edges[keep])
    for e in edges:
        _assert_wrap_is_remainder(np.array([e]))
    # just outside the one-period range, alone, so nothing else picks the form
    for e in (2.0 * TWO_PI, np.nextafter(-TWO_PI, -10.0)):
        _assert_wrap_is_remainder(np.array([0.5, e]))


@settings(max_examples=200, deadline=None, database=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 50),
        elements=st.one_of(
            st.floats(-TWO_PI, 2.0 * TWO_PI, exclude_max=True), st.sampled_from(ONE_PERIOD_EDGES)
        ),
    )
)
def test_wrap_one_period_is_remainder_hypothesis(a):
    _assert_wrap_is_remainder(a)


def test_cell_index_truncation_is_floor_on_in_range_positions():
    rng = np.random.default_rng(8)
    n_cells = 64
    dx = TWO_PI / n_cells
    edges = [0.0, 1e-300, dx, np.nextafter(dx, 0.0), np.nextafter(TWO_PI, 0.0)]
    x = np.concatenate([rng.uniform(0.0, TWO_PI, 20000), edges])
    i0, frac = kernels.cell_index(x, dx, n_cells)
    s = x / dx
    assert i0.dtype == np.int64
    np.testing.assert_array_equal(i0, np.floor(s).astype(np.int64))
    np.testing.assert_array_equal(frac.view(np.int64), (s - np.floor(s)).view(np.int64))
    assert i0[-1] == n_cells - 1
    # 2 pi alone is outside [0, 2 pi): the floor form wraps it to cell 0
    i0, frac = kernels.cell_index(np.array([1.0, TWO_PI]), dx, n_cells)
    assert i0[1] == 0 and frac[1] == 0.0


def test_cell_index_wraps_any_finite_position():
    n_cells = 16
    dx = TWO_PI / n_cells
    below = np.nextafter(TWO_PI, 0.0)
    x = np.array([0.0, 0.5 * dx, TWO_PI, below, -0.25 * dx, TWO_PI + 3.5 * dx, -40.0])
    i0, frac = kernels.cell_index(x, dx, n_cells)
    s = x / dx
    np.testing.assert_array_equal(i0, np.floor(s).astype(np.int64) % n_cells)
    np.testing.assert_array_equal(frac, s - np.floor(s))
    with pytest.raises(ValueError, match="finite"):
        kernels.cell_index(np.array([1.0, np.nan]), dx, n_cells)


def test_two_moment_deposit_is_the_full_deposit_cut():
    rng = np.random.default_rng(7)
    n_cells, dx = 48, TWO_PI / 48
    x = rng.uniform(0.0, TWO_PI, 3000)
    xi = rng.standard_normal(3000)
    w = rng.uniform(0.5, 1.5, 3000)
    i0, frac = kernels.cell_index(x, dx, n_cells)
    full = kernels.deposit_moments(i0, frac, xi, w, n_cells, 4)
    two = kernels.deposit_moments(i0, frac, xi, w, n_cells, 2)
    np.testing.assert_array_equal(two, full[:2])


def test_gather_with_reused_index_equals_gather_from_positions():
    # the half-pushed ensemble's index, taken for the deposit, serves the
    # second half-push: the result is the push that indexes afresh
    g = Grid(1, 64)
    rng = np.random.default_rng(9)
    ens = ParticleEnsemble(
        rng.uniform(0.0, TWO_PI, 4000), rng.standard_normal(4000), np.ones(4000)
    )
    v = np.sin(g.coords()[0]) + 0.1 * rng.standard_normal(g.n)
    cell = kernels.cell_index(ens.x, g.dx, g.n)
    kept = [a.copy() for a in cell]
    deposit(ens, g, cell)
    reused = push(ens, v, 0.01, g, cell)
    for a, b in zip(cell, kept):
        np.testing.assert_array_equal(a, b)
    fresh = push(ens, v, 0.01, g)
    np.testing.assert_array_equal(reused.x, fresh.x)
    np.testing.assert_array_equal(reused.xi, fresh.xi)
    # and the index-based gather is the linear interpolation of the positions
    s = ens.x / g.dx
    left = np.floor(s).astype(np.int64) % g.n
    frac = s - np.floor(s)
    expected = v[left] * (1.0 - frac) + v[(left + 1) % g.n] * frac
    np.testing.assert_array_equal(kernels.gather(v, *cell), expected)


@pytest.mark.parametrize(
    "size", [1, kinetic.BLOCK - 1, kinetic.BLOCK + 3, 2 * kinetic.BLOCK + 1, 100_000]
)
def test_blocked_push_is_the_whole_array_push_bit_for_bit(size):
    # n = 48: the largest double below 2*pi divided by dx rounds up to 48, so
    # cell_index takes its remainder branch on it
    g = Grid(1, 48)
    rng = np.random.default_rng(size)
    x = rng.uniform(0.0, TWO_PI, size)
    xi = rng.standard_normal(size)
    v = rng.standard_normal(g.n)
    v[[0, -1]] = 0.0  # a particle at rest next to 2*pi stays where it is
    x[0], xi[0] = np.nextafter(TWO_PI, 0.0), 0.0  # first block
    if size > 1:
        x[-2:] = TWO_PI - 1e-3, 1e-3  # last block: pushed past 2*pi and below 0
        xi[-2:] = 50.0, -50.0
    dt = 0.01
    cell = kernels.cell_index(x, g.dx, g.n)

    xi_mid = xi + 0.5 * dt * (kernels.gather(v, *cell) - xi)
    v_mid = kernels.gather(v, *kernels.cell_index(kernels.wrap(x + 0.5 * dt * xi), g.dx, g.n))
    x_want = kernels.wrap(x + dt * xi_mid)
    xi_want = xi + dt * (v_mid - xi_mid)
    cell_want = kernels.cell_index(x_want, g.dx, g.n)
    assert x_want[0] / g.dx == g.n and cell_want[0][0] == 0
    if size > 1:
        assert (x + dt * xi_mid)[-2] > TWO_PI and (x + dt * xi_mid)[-1] < 0.0

    ens = ParticleEnsemble(x, xi, np.ones(size))
    out = np.full(size, np.nan), np.full(size, np.nan)
    got = push(ens, v, dt, g, cell, out)
    assert got.x is out[0] and got.xi is out[1]
    for a, b in zip((got.x, got.xi) + cell, (x_want, xi_want) + cell_want):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    fresh = push(ens, v, dt, g)
    np.testing.assert_array_equal(fresh.x.view(np.int64), x_want.view(np.int64))
    np.testing.assert_array_equal(fresh.xi.view(np.int64), xi_want.view(np.int64))


@pytest.mark.parametrize(
    "size,blocks",
    [
        (0, []),
        (1, [1]),
        (kinetic.BLOCK + 3, [kinetic.BLOCK + 3]),
        (2 * kinetic.BLOCK + 1, [kinetic.BLOCK + 1, kinetic.BLOCK]),
        (100_000, [33_334, 33_334, 33_332]),
    ],
)
def test_push_splits_the_particles_into_nearly_equal_blocks(monkeypatch, size, blocks):
    # round(size / BLOCK) blocks, at least one when there are particles: 100k
    # particles make three blocks, not three and a short fourth
    g = Grid(1, 16)
    rng = np.random.default_rng(size)
    ens = ParticleEnsemble(rng.uniform(0.0, TWO_PI, size), rng.standard_normal(size), np.ones(size))
    cell = kernels.cell_index(ens.x, g.dx, g.n)
    seen = []
    gather = kernels.gather

    def counting_gather(values, i0, frac, out=None):
        seen.append(i0.size)
        return gather(values, i0, frac, out=out)

    monkeypatch.setattr(kernels, "gather", counting_gather)
    push(ens, np.zeros(g.n), 0.01, g, cell, (np.empty(size), np.empty(size)))
    assert seen == [b for b in blocks for _ in range(2)]  # two gathers a block


# -- deposition ---------------------------------------------------------------


def test_deposit_single_particle_mass():
    g = Grid(1, 32)
    w = 0.7
    ens = ParticleEnsemble(np.array([1.234]), np.array([0.5]), np.array([w]))
    moments = deposit(ens, g)
    assert float(np.sum(moments.rho)) * g.dx == pytest.approx(w, rel=1e-14)
    assert float(np.sum(moments.m)) * g.dx == pytest.approx(w * 0.5, rel=1e-14)


def test_deposit_conserves_mass_momentum_exactly():
    g = Grid(1, 64)
    rng = np.random.default_rng(3)
    ens = ParticleEnsemble(
        rng.uniform(0, TWO_PI, 20000), rng.standard_normal(20000), rng.uniform(0.1, 1.0, 20000)
    )
    moments = deposit(ens, g)
    assert float(np.sum(moments.rho)) * g.dx == pytest.approx(ens.total_mass(), rel=1e-13)
    assert float(np.sum(moments.m)) * g.dx == pytest.approx(ens.total_momentum(), rel=1e-12)


def test_deposit_opposite_velocities_variance():
    # two equal-weight particles at one point with xi = +-1: u = 0 and the
    # deposited variance density integrates to the total weight
    g = Grid(1, 32)
    x0 = g.dx * 5.0  # exactly on a node
    ens = ParticleEnsemble(
        np.array([x0, x0]), np.array([1.0, -1.0]), np.array([0.5, 0.5])
    )
    moments = deposit(ens, g)
    assert float(np.sum(moments.m)) * g.dx == pytest.approx(0.0, abs=1e-15)
    # rho*theta = 0.5 * sum w (xi-u)^2 = 0.5 * (1) deposited at the node
    assert float(np.sum(moments.theta_rho)) * g.dx == pytest.approx(0.5, rel=1e-13)


def test_monokinetic_deposit_small_variance():
    # single-velocity start: the deposited variance is pure interpolation
    # spread, ~ (grad u * dx)^2, vanishing under joint refinement
    gaps = []
    for n_grid, n_p in ((64, 4000), (128, 16000)):
        g = Grid(1, n_grid)
        x = g.coords()[0]
        rho = 1.0 + 0.3 * np.cos(x)
        u = 0.2 * np.sin(x)
        ens = monokinetic_ensemble(g, rho, u, n_p)
        moments = deposit(ens, g)
        gaps.append(closure_gap(moments, g).theta_mass)
    assert gaps[0] < 1e-3
    assert gaps[1] < 0.5 * gaps[0]


def _sorted_quiet_start(grid, rho_values, u_values, n_particles):
    """The quiet start in position order: positions from the inverse
    cumulative mass of the 16-fold upsampled rho, velocities from u."""
    n_fine = 16 * grid.n
    rho_fine = np.fft.irfft(np.fft.rfft(rho_values), n_fine) * (n_fine / grid.n)
    u_fine = np.fft.irfft(np.fft.rfft(u_values), n_fine) * (n_fine / grid.n)
    dxf = TWO_PI / n_fine
    x_fine = np.arange(n_fine + 1) * dxf
    cdf = np.concatenate(([0.0], np.cumsum(rho_fine) * dxf))
    targets = (np.arange(n_particles) + 0.5) / n_particles * cdf[-1]
    x = np.interp(targets, cdf, x_fine) % TWO_PI
    xi = np.interp(x, x_fine, np.concatenate((u_fine, u_fine[:1])))
    w = np.full(n_particles, float(np.mean(rho_values)) * TWO_PI / n_particles)
    return ParticleEnsemble(x, xi, w)


@pytest.mark.parametrize("n_p", [1, 2, 3, 5, 4001, 100_000])
def test_monokinetic_quiet_start_interleaves_the_sorted_start(n_p):
    g = Grid(1, 64)
    x = g.coords()[0]
    rho = 1.0 + 0.3 * np.cos(x)
    u = 0.2 * np.sin(x)
    ens = monokinetic_ensemble(g, rho, u, n_p)
    ref = _sorted_quiet_start(g, rho, u, n_p)
    # the same particles, each with the velocity it has in the sorted start
    by_x = np.argsort(ens.x, kind="stable")
    np.testing.assert_array_equal(ens.x[by_x], ref.x)
    np.testing.assert_array_equal(ens.xi[by_x], ref.xi)
    # listed quarter by quarter: sorted ranks 0, q, 2q, 3q, 1, q + 1, ...
    q = -(-n_p // 4)
    rank = np.empty(n_p, dtype=np.int64)
    rank[by_x] = np.arange(n_p)
    expected = [k * q + r for r in range(q) for k in range(4) if k * q + r < n_p]
    np.testing.assert_array_equal(rank, expected)
    assert ens.total_mass() == pytest.approx(ref.total_mass(), rel=1e-14)
    # the reordered sums of the deposit agree with the sorted start's
    got = kernels.deposit_moments(*kernels.cell_index(ens.x, g.dx, g.n), ens.xi, ens.w, g.n, 4)
    want = kernels.deposit_moments(*kernels.cell_index(ref.x, g.dx, g.n), ref.xi, ref.w, g.n, 4)
    for k in range(4):
        np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-14 * np.max(np.abs(want[k])))


def test_monokinetic_quiet_start_mass_and_density():
    g = Grid(1, 64)
    x = g.coords()[0]
    rho = 1.0 + 0.3 * np.cos(x)
    u = 0.2 * np.sin(x)
    ens = monokinetic_ensemble(g, rho, u, 100_000)
    assert ens.total_mass() == pytest.approx(float(np.mean(rho)) * TWO_PI, rel=1e-12)
    moments = deposit(ens, g)
    # CIC smoothing bias is O(dx^2) on the unit mode
    assert np.max(np.abs(moments.rho - rho)) < 5e-3


# -- characteristics ----------------------------------------------------------


def test_push_relaxation_exact_ode():
    # v constant: xi(t) = c + (xi0 - c) e^{-t}
    g = Grid(1, 32)
    c = 0.3
    v = np.full(g.shape, c)
    ens = ParticleEnsemble(np.array([0.1]), np.array([1.5]), np.array([1.0]))
    dt = 1e-3
    for _ in range(1000):
        ens = push(ens, v, dt, g)
    expected = c + (1.5 - c) * math.exp(-1.0)
    assert abs(ens.xi[0] - expected) < 1e-7


def test_push_equilibrium_characteristic():
    g = Grid(1, 32)
    c = 0.4
    v = np.full(g.shape, c)
    ens = ParticleEnsemble(np.array([1.0]), np.array([c]), np.array([1.0]))
    for _ in range(100):
        ens = push(ens, v, 1e-2, g)
    assert ens.xi[0] == pytest.approx(c, abs=1e-14)
    assert ens.x[0] == pytest.approx((1.0 + c) % TWO_PI, rel=1e-12)


def test_push_second_order():
    g = Grid(1, 64)
    x = g.coords()[0]
    v = 0.3 * np.sin(x)

    def final_x(dt, nsteps):
        ens = ParticleEnsemble(np.array([0.7]), np.array([0.4]), np.array([1.0]))
        for _ in range(nsteps):
            ens = push(ens, v, dt, g)
        return ens.x[0], ens.xi[0]

    ref = final_x(1e-3 / 8, 8000)
    coarse = final_x(1e-3 * 2, 500)
    fine = final_x(1e-3, 1000)
    err_c = abs(coarse[0] - ref[0]) + abs(coarse[1] - ref[1])
    err_f = abs(fine[0] - ref[0]) + abs(fine[1] - ref[1])
    assert err_c / err_f > 3.0


# -- coupled runs -------------------------------------------------------------


def drag_cfg(t_end, dt_max=1e-3):
    return TimeConfig(t_end=t_end, dt_max=dt_max, record_every=10**9)


def test_kinetic_run_uniform_drag_matches_ode():
    # all particles at speed a over uniform fluid at speed b
    g = Grid(1, 32)
    a, b = 1.0, 0.0
    ens = monokinetic_ensemble(g, np.ones(g.shape), np.full(g.shape, a), 20000)
    j0 = np.full((1,) + g.shape, b)
    res = kinetic_run(ens, g.zeros(), j0, g, PARAMS, drag_cfg(1.0))
    u_fin = res.ensemble.total_momentum() / res.ensemble.total_mass()
    v_fin = float(np.mean(res.n * 0 + res.j[0]))
    gap = u_fin - v_fin
    assert gap == pytest.approx((a - b) * math.exp(-2.0), rel=1e-6)


def test_kinetic_run_conserves_total_momentum():
    g = Grid(1, 64)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05})
    state0 = generate_initial(spec, g)
    ens = monokinetic_ensemble(g, state0.rho, state0.m[0] / state0.rho, 20000)
    res = kinetic_run(ens, state0.n, state0.j, g, PARAMS, TimeConfig(t_end=0.5, record_every=10**9))
    p0 = ens.total_momentum() + float(np.sum(state0.j[0])) * g.dx
    p1 = res.ensemble.total_momentum() + float(np.sum(res.j[0])) * g.dx
    scale = ens.total_mass()
    assert abs(p1 - p0) / scale < 1e-6


def test_kinetic_run_leaves_its_inputs_untouched():
    g = Grid(1, 32)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05})
    state0 = generate_initial(spec, g)
    ens = monokinetic_ensemble(g, state0.rho, state0.m[0] / state0.rho, 2000)
    inputs = (state0.n, state0.j, ens.x, ens.xi, ens.w)
    before = [a.tobytes() for a in inputs]
    res = kinetic_run(ens, state0.n, state0.j, g, PARAMS, TimeConfig(t_end=0.02))
    assert res.status == Status.COMPLETED and res.steps > 1
    assert [a.tobytes() for a in inputs] == before
    # the samples are copies, not views of the fluid state that moves on
    assert not any(np.shares_memory(s.n, res.n) or np.shares_memory(s.j, res.j) for s in res.samples)


@pytest.mark.parametrize("scheme", ["rk4", "ssp_rk3"])
def test_kinetic_run_empty_ensemble_is_pure_fluid(scheme):
    g = Grid(1, 64)
    spec = InitSpec(kind="single_mode", amplitudes={"n": 0.05, "v": 0.05})
    state0 = generate_initial(spec, g)
    state0.rho[:] = 1.0  # grid solver needs mass; coupling removed below
    state0.m[:] = 0.0
    empty = ParticleEnsemble(np.zeros(0), np.zeros(0), np.zeros(0))
    cfg = TimeConfig(t_end=0.5, dt_max=1e-3, record_every=10**9, scheme=scheme)
    kin = kinetic_run(empty, state0.n, state0.j, g, PARAMS, cfg)

    params_off = FluidParams(gamma=2.0, mu=1.0, lam=0.0, drag_on=False)
    hydro = run(state0, params_off, cfg)
    assert hydro.status == Status.COMPLETED
    assert np.max(np.abs(kin.n - hydro.final_state.n)) < 1e-13
    assert np.max(np.abs(kin.j - hydro.final_state.j)) < 1e-13


def test_kinetic_run_returns_stop_status():
    # with cfl_diffusive = 1, dt * (2 mu + lam) * k_max^2 is about 9.9 for the
    # top mode, far outside RK4's stability interval (about 2.8): round-off
    # grows until the fluid hits vacuum
    g = Grid(1, 64)
    spec = InitSpec(kind="single_mode", amplitudes={"n": 0.05, "v": 0.05})
    state0 = generate_initial(spec, g)
    empty = ParticleEnsemble(np.zeros(0), np.zeros(0), np.zeros(0))
    cfg = TimeConfig(t_end=2.0, cfl_diffusive=1.0, dt_max=1.0, record_every=1)
    kin = kinetic_run(empty, state0.n, state0.j, g, PARAMS, cfg)
    assert kin.status == Status.FLUID_VACUUM_BREACH
    assert 0 < kin.steps == len(kin.samples) - 1
    assert 0.0 < kin.t_final < cfg.t_end
    assert kin.samples[-1].t == kin.t_final
    # the result is the last good state
    assert np.all(np.isfinite(kin.n)) and np.all(np.isfinite(kin.j))
    assert float(np.min(1.0 + kin.n)) > 0.0
    np.testing.assert_array_equal(kin.samples[-1].n, kin.n)


def test_kinetic_run_stopped_with_particles_returns_the_last_good_ensemble():
    # dt = dt_max = 2**-8 every step (below the diffusive limit dx^2 / 2), so
    # the times add exactly; dt * 2 mu * k^2 exceeds RK4's stability interval
    # for the top modes, and the fluid reaches vacuum after some steps
    g = Grid(1, 64)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05})
    state0 = generate_initial(spec, g)
    ens = monokinetic_ensemble(g, state0.rho, state0.m[0] / state0.rho, 3000)
    cfg = TimeConfig(t_end=4.0, cfl_diffusive=1.0, dt_max=2.0**-8, record_every=10**9)
    stopped = kinetic_run(ens, state0.n, state0.j, g, PARAMS, cfg)
    assert stopped.status == Status.FLUID_VACUUM_BREACH and stopped.steps >= 1
    assert stopped.t_final == stopped.steps * cfg.dt_max
    to_there = kinetic_run(ens, state0.n, state0.j, g, PARAMS, replace(cfg, t_end=stopped.t_final))
    assert to_there.status == Status.COMPLETED and to_there.steps == stopped.steps
    assert stopped.ensemble.x.tobytes() == to_there.ensemble.x.tobytes()
    assert stopped.ensemble.xi.tobytes() == to_there.ensemble.xi.tobytes()
    np.testing.assert_array_equal(stopped.n, to_there.n)


def test_kinetic_run_uncomputable_dt_stops_with_blowup_status():
    # the sound speed overflows a double at gamma = 1e6, so no dt exists
    g = Grid(1, 32)
    state0 = generate_initial(InitSpec(kind="single_mode", amplitudes={"n": 0.05}), g)
    ens = monokinetic_ensemble(g, state0.rho, state0.m[0] / state0.rho, 1000)
    params = FluidParams(gamma=1e6, mu=1.0)
    kin = kinetic_run(ens, state0.n, state0.j, g, params, TimeConfig(t_end=0.5))
    assert kin.status == Status.BLOWUP
    assert kin.steps == 0 and len(kin.samples) == 1


@pytest.mark.parametrize(
    "fault,error,message",
    [
        ("nan", DynamicsError, "non-finite values in n"),
        ("vacuum", NonPositiveDensity, "fluid density 1\\+n must be positive"),
    ],
)
def test_kinetic_run_refuses_an_inadmissible_start_as_run_does(fault, error, message):
    g = Grid(1, 32)
    x = g.coords()[0]
    n0 = 1.5 * np.cos(x) if fault == "vacuum" else np.where(x > 1.0, np.nan, 0.0)
    j0 = np.zeros((1,) + g.shape)
    ens = monokinetic_ensemble(g, np.ones(g.shape), np.zeros(g.shape), 1000)
    with pytest.raises(error, match=message):
        kinetic_run(ens, n0, j0, g, PARAMS, TimeConfig(t_end=0.1))
    # the grid solver refuses the same fluid the same way
    state = generate_initial(InitSpec(kind="uniform_drag"), g)
    state.n = n0 - np.mean(n0)
    with pytest.raises(error, match=message):
        run(state, PARAMS, TimeConfig(t_end=0.1))


def test_compare_once_rejects_stopped_particle_run(monkeypatch):
    g = Grid(1, 32)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05})
    state0 = generate_initial(spec, g)
    real_run = kinetic.kinetic_run

    def stopped(*args):
        return replace(real_run(*args), status=Status.BLOWUP)

    monkeypatch.setattr(kinetic, "kinetic_run", stopped)
    with pytest.raises(kinetic.KineticError, match="particle run stopped: blowup"):
        compare_once(g, state0, PARAMS, TimeConfig(t_end=0.01), 1000)


def test_zero_drag_particles_decouple():
    # drag_on=False removes the feedback on the fluid; with a uniform fluid
    # the particle velocities still relax toward v by the exact ODE
    g = Grid(1, 32)
    params = FluidParams(gamma=2.0, mu=1.0, lam=0.0, drag_on=False)
    b = 0.2
    ens = ParticleEnsemble(np.array([0.5]), np.array([1.0]), np.array([1.0]))
    res = kinetic_run(ens, g.zeros(), np.full((1,) + g.shape, b), g, params, drag_cfg(1.0))
    expected = b + (1.0 - b) * math.exp(-1.0)
    assert res.ensemble.xi[0] == pytest.approx(expected, rel=1e-5)
    # fluid unchanged (uniform, no feedback)
    assert np.max(np.abs(res.j[0] - b)) < 1e-12


def test_compare_with_hydro_converges():
    g = Grid(1, 32)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05})
    params = PARAMS
    cfg = TimeConfig(t_end=0.2, record_every=10**9)
    state0 = generate_initial(spec, g)
    base = compare_once(g, state0, params, cfg, 20_000)
    g2 = Grid(1, 64)
    state2 = generate_initial(spec, g2)
    fine = compare_once(g2, state2, params, cfg, 80_000)
    assert base.rel_diff < 0.05
    assert fine.rel_diff < base.rel_diff
    assert fine.theta_mass < base.theta_mass


def test_closure_gap_bimodal():
    g = Grid(1, 32)
    x0 = g.dx * 3.0
    ens = ParticleEnsemble(np.array([x0, x0]), np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    gap = closure_gap(deposit(ens, g), g)
    # unit variance, total weight 2: integral of rho*theta = 0.5 * 2 * 1
    assert gap.theta_mass == pytest.approx(1.0, rel=1e-12)
    assert gap.q_abs == pytest.approx(0.0, abs=1e-12)
    assert gap.total == pytest.approx(1.0, rel=1e-12)
