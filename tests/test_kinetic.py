"""Particle reference solver: kernel and push/deposit oracles, conservation,
and the coupled-run comparison against the grid solver."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dragflow import kernels, kinetic
from dragflow.dynamics import FluidParams
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
    got = kernels.wrap(a)
    np.testing.assert_array_equal(got.view(np.int64), (a % TWO_PI).view(np.int64))
    assert np.all((got >= 0.0) & (got <= TWO_PI))


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
    assert float(np.sum(moments.sigma_hat)) * g.dx == pytest.approx(1.0, rel=1e-13)


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


def test_kinetic_run_uncomputable_dt_stops_with_blowup_status():
    # the sound speed overflows a double at gamma = 1e6, so no dt exists
    g = Grid(1, 32)
    state0 = generate_initial(InitSpec(kind="single_mode", amplitudes={"n": 0.05}), g)
    ens = monokinetic_ensemble(g, state0.rho, state0.m[0] / state0.rho, 1000)
    params = FluidParams(gamma=1e6, mu=1.0)
    kin = kinetic_run(ens, state0.n, state0.j, g, params, TimeConfig(t_end=0.5))
    assert kin.status == Status.BLOWUP
    assert kin.steps == 0 and len(kin.samples) == 1


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
