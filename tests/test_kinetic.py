"""Particle reference solver: kernel and push/deposit oracles, conservation,
and the coupled-run comparison against the grid solver."""
import math
import tracemalloc
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


def test_deposit_goes_block_by_block():
    # 100k particles make three blocks: the sums agree with the whole-array
    # bincounts to round-off, and the weights are a block long, not a
    # particle list long
    rng = np.random.default_rng(19)
    n_cells, size = 64, 100_000
    i0 = rng.integers(0, n_cells, size)
    frac, xi, w = rng.uniform(0.0, 1.0, size), rng.standard_normal(size), rng.uniform(0.5, 1.5, size)
    left, right = w * (1.0 - frac), w * frac
    want = np.stack([
        np.bincount(i0, left * xi**k, n_cells) + np.roll(np.bincount(i0, right * xi**k, n_cells), 1)
        for k in range(4)
    ])
    tracemalloc.start()
    try:
        got = kernels.deposit_moments(i0, frac, xi, w, n_cells, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for k in range(4):
        np.testing.assert_allclose(got[k], want[k], rtol=0, atol=1e-13 * np.max(np.abs(want[k])))
    # left, right and 1 - frac of one block; a whole-array deposit holds three
    # particle-length arrays (2.4 MB)
    block = kernels.blocks(size)[0]
    assert peak < 4 * 8 * (block.stop - block.start), peak


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


def _cells(ens, grid):
    """The ensemble's particles in cell coordinates, (i0, frac, xi)."""
    return (*kernels.cell_index(ens.x, grid.dx, grid.n), ens.xi)


# the edges of a move: the ends of a cell, the signed zeros and tiny values,
# one period either way, and far beyond it
MOVE_EDGES = [
    0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, -1e-300, 1e-300, -1.0, 48.0, -48.0, 1e15, -1e15
]


def _assert_move_is_floor_and_remainder(i0, t, n_cells):
    fl = np.floor(t)
    out = np.full(t.size, -1, np.int64)
    offsets = t.copy()
    i, f = kernels.move(i0, offsets, n_cells, out=out)
    assert i is out and f is offsets
    np.testing.assert_array_equal(i, ((i0 + fl) % n_cells).astype(np.int64))
    # t - floor(t), which is t on [0, 1) but for the sign of a -0.0
    want = np.where((t >= 0.0) & (t < 1.0), t, t - fl)
    np.testing.assert_array_equal(f.view(np.int64), want.view(np.int64))
    assert i.min() >= 0 and i.max() < n_cells and f.min() >= 0.0 and f.max() <= 1.0


def test_move_is_floor_and_remainder_bit_for_bit():
    rng = np.random.default_rng(10)
    # most points stay in their cell; some cross one edge, some go periods away
    t = np.concatenate(
        [
            rng.uniform(0.0, 1.0, 4000),
            rng.uniform(-1.5, 2.5, 1000),
            rng.uniform(-4.0 * 48, 4.0 * 48, 990),
            MOVE_EDGES,
        ]
    )
    i0 = rng.integers(0, 48, t.size)
    _assert_move_is_floor_and_remainder(i0, t, 48)
    with pytest.raises(ValueError, match="finite"):
        kernels.move(i0[:2], np.array([0.5, np.nan]), 48, np.empty(2, np.int64))


@settings(max_examples=200, deadline=None, database=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 50),
        elements=st.one_of(st.floats(-200.0, 200.0), st.sampled_from(MOVE_EDGES)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_move_is_floor_and_remainder_hypothesis(t, seed):
    i0 = np.random.default_rng(seed).integers(0, 48, t.size)
    _assert_move_is_floor_and_remainder(i0, t, 48)


def test_position_is_the_cell_index_inverse():
    g = Grid(1, 48)
    rng = np.random.default_rng(13)
    x = np.append(rng.uniform(0.0, TWO_PI, 5000), [0.0, np.nextafter(TWO_PI, 0.0), g.dx])
    got = kernels.position(*kernels.cell_index(x, g.dx, g.n), g.dx)
    assert got.min() >= 0.0 and got.max() < TWO_PI
    # the largest double below 2*pi indexes as cell 0, offset 0: back at 0
    err = np.abs(got - x)
    np.testing.assert_array_less(np.minimum(err, TWO_PI - err), 1e-14)
    # a cell index n - 1 with offset 1 is 2*pi, folded to 0
    assert kernels.position(np.array([g.n - 1]), np.array([1.0]), g.dx)[0] == 0.0


def test_gather_at_a_cell_edge_is_the_grid_value_bit_for_bit():
    rng = np.random.default_rng(14)
    v = rng.standard_normal(64)
    i0 = np.append(rng.integers(0, 64, 5000), [0, 63])
    got = kernels.gather(v, i0, np.zeros(i0.size))
    np.testing.assert_array_equal(got.view(np.int64), v[i0].view(np.int64))


def test_gather_slope_form_is_the_two_sided_form_to_round_off():
    rng = np.random.default_rng(15)
    for scale in (1.0, 1e-3, 1e3):
        v = scale * rng.standard_normal(64)
        i0 = rng.integers(0, 64, 20000)
        frac = rng.uniform(0.0, 1.0, 20000)
        two_sided = v[i0] * (1.0 - frac) + v[(i0 + 1) % 64] * frac
        ulp = np.spacing(np.max(np.abs(v)))
        np.testing.assert_allclose(kernels.gather(v, i0, frac), two_sided, rtol=0, atol=4 * ulp)


def test_gather_and_deposit_are_the_consistent_pair():
    # sum_p w_p v(x_p) = sum_g v_g s0_g: the drag the particles feel is the
    # drag the fluid feels
    rng = np.random.default_rng(16)
    n_cells = 64
    v = 1.0 + 0.5 * rng.standard_normal(n_cells)
    i0 = rng.integers(0, n_cells, 20000)
    frac = rng.uniform(0.0, 1.0, 20000)
    w = rng.uniform(0.5, 1.5, 20000)
    s0 = kernels.deposit_moments(i0, frac, np.zeros(20000), w, n_cells, 1)[0]
    on_particles = float(np.sum(w * kernels.gather(v, i0, frac)))
    assert on_particles == pytest.approx(float(np.dot(v, s0)), rel=1e-14)


def test_gather_with_reused_index_equals_gather_from_positions():
    # the half-pushed particles, which the deposit reads, serve the second
    # half-push: neither the deposit nor a push writes the triple it reads
    g = Grid(1, 64)
    rng = np.random.default_rng(9)
    ens = ParticleEnsemble(
        rng.uniform(0.0, TWO_PI, 4000), rng.standard_normal(4000), np.ones(4000)
    )
    v = np.sin(g.coords()[0]) + 0.1 * rng.standard_normal(g.n)
    particles = _cells(ens, g)
    kept = [a.copy() for a in particles]
    deposit(ens, g, particles)
    into = push(particles, v, 0.01, g, tuple(np.empty_like(a) for a in particles))
    for a, b in zip(particles, kept):
        np.testing.assert_array_equal(a, b)
    fresh = push(particles, v, 0.01, g)
    for a, b in zip(into, fresh):
        np.testing.assert_array_equal(a, b)
    # and the index-based gather is the linear interpolation of the
    # positions, in its slope form
    s = ens.x / g.dx
    left = np.floor(s).astype(np.int64) % g.n
    frac = s - np.floor(s)
    expected = v[left] + frac * (v[(left + 1) % g.n] - v[left])
    np.testing.assert_array_equal(kernels.gather(v, *particles[:2]), expected)


@pytest.mark.parametrize(
    "size", [1, kernels.BLOCK - 1, kernels.BLOCK + 3, 2 * kernels.BLOCK + 1, 100_000]
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
    dt, h = 0.01, 0.005
    i0, frac = kernels.cell_index(x, g.dx, g.n)

    # the whole-array update in cell coordinates
    xi_mid = xi + h * (kernels.gather(v, i0, frac) - xi)
    t = xi * (h / g.dx) + frac
    v_mid = kernels.gather(v, i0 + np.floor(t).astype(np.int64), t - np.floor(t))
    xi_want = xi + dt * (v_mid - xi_mid)
    t = xi_mid * (dt / g.dx) + frac
    cells = i0 + np.floor(t).astype(np.int64)
    want = cells % g.n, t - np.floor(t), xi_want
    assert i0[0] == 0 and frac[0] == 0.0 and want[0][0] == 0 and want[1][0] == 0.0
    if size > 1:
        assert cells[-2] >= g.n and cells[-1] < 0

    particles = i0, frac, xi
    kept = [a.copy() for a in particles]
    out = np.full(size, -1), np.full(size, np.nan), np.full(size, np.nan)
    got = push(particles, v, dt, g, out)
    assert all(a is b for a, b in zip(got, out))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    for a, b in zip(particles, kept):
        np.testing.assert_array_equal(a, b)
    fresh = push(particles, v, dt, g)
    for a, b in zip(fresh, want):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_push_carries_particles_periods_forward_and_backward():
    # v = 0 and dt = 1: xi_mid = xi / 2, so xi = +-7 * 2*pi moves a particle
    # 3.5 periods, past the one-period fold, at the midpoint and at the end
    g = Grid(1, 48)
    rng = np.random.default_rng(17)
    size = 4000
    x = rng.uniform(0.0, TWO_PI, size)
    xi = np.where(np.arange(size) % 2 == 0, 7.0, -7.0) * TWO_PI + rng.uniform(-1.0, 1.0, size)
    i, frac, xi_new = push((*kernels.cell_index(x, g.dx, g.n), xi), np.zeros(g.n), 1.0, g)
    np.testing.assert_array_equal(xi_new, 0.5 * xi)
    assert i.min() >= 0 and i.max() < g.n and frac.min() >= 0.0 and frac.max() <= 1.0
    got = kernels.position(i, frac, g.dx)
    assert got.min() >= 0.0 and got.max() < TWO_PI
    err = np.abs(got - (x + 0.5 * xi) % TWO_PI)
    np.testing.assert_array_less(np.minimum(err, TWO_PI - err), 1e-12)


def test_push_refuses_a_non_finite_velocity():
    g = Grid(1, 16)
    rng = np.random.default_rng(18)
    particles = (*kernels.cell_index(rng.uniform(0.0, TWO_PI, 100), g.dx, g.n), np.zeros(100))
    v = np.zeros(g.n)
    v[particles[0][7]] = np.nan  # one particle's cell
    with pytest.raises(kinetic.KineticError, match="finite"):
        push(particles, v, 0.01, g)


@pytest.mark.parametrize(
    "size,blocks",
    [
        (0, []),
        (1, [1]),
        (kernels.BLOCK + 3, [kernels.BLOCK + 3]),
        (2 * kernels.BLOCK + 1, [kernels.BLOCK + 1, kernels.BLOCK]),
        (100_000, [33_334, 33_334, 33_332]),
    ],
)
def test_push_splits_the_particles_into_nearly_equal_blocks(monkeypatch, size, blocks):
    # round(size / BLOCK) blocks, at least one when there are particles: 100k
    # particles make three blocks, not three and a short fourth
    g = Grid(1, 16)
    rng = np.random.default_rng(size)
    ens = ParticleEnsemble(rng.uniform(0.0, TWO_PI, size), rng.standard_normal(size), np.ones(size))
    particles = _cells(ens, g)
    seen = []
    gather = kernels.gather

    def counting_gather(values, i0, frac, out=None):
        seen.append(i0.size)
        return gather(values, i0, frac, out=out)

    monkeypatch.setattr(kernels, "gather", counting_gather)
    push(particles, np.zeros(g.n), 0.01, g, tuple(np.empty_like(a) for a in particles))
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
    particles = (*kernels.cell_index(np.array([0.1]), g.dx, g.n), np.array([1.5]))
    dt = 1e-3
    for _ in range(1000):
        particles = push(particles, v, dt, g)
    expected = c + (1.5 - c) * math.exp(-1.0)
    assert abs(particles[2][0] - expected) < 1e-7


def test_push_equilibrium_characteristic():
    g = Grid(1, 32)
    c = 0.4
    v = np.full(g.shape, c)
    particles = (*kernels.cell_index(np.array([1.0]), g.dx, g.n), np.array([c]))
    for _ in range(100):
        particles = push(particles, v, 1e-2, g)
    assert particles[2][0] == pytest.approx(c, abs=1e-14)
    x = kernels.position(particles[0], particles[1], g.dx)
    assert x[0] == pytest.approx((1.0 + c) % TWO_PI, rel=1e-12)


def test_push_second_order():
    g = Grid(1, 64)
    x = g.coords()[0]
    v = 0.3 * np.sin(x)

    def final_x(dt, nsteps):
        particles = (*kernels.cell_index(np.array([0.7]), g.dx, g.n), np.array([0.4]))
        for _ in range(nsteps):
            particles = push(particles, v, dt, g)
        return kernels.position(particles[0], particles[1], g.dx)[0], particles[2][0]

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


@pytest.mark.parametrize("scheme", ["rk4"])
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
