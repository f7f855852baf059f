"""Particle reference solver: push/deposit oracles, kernel-path agreement,
conservation, and the coupled-run comparison against the grid solver."""
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
        ParticleEnsemble(np.zeros((2, 2)), np.zeros(4), np.ones(4))


# -- kernels ------------------------------------------------------------------


def test_kernel_paths_agree():
    rng = np.random.default_rng(12)
    n_cells, dx = 32, TWO_PI / 32
    x = rng.uniform(0.0, TWO_PI, 5000)
    xi = rng.standard_normal(5000)
    w = rng.uniform(0.5, 1.5, 5000)
    numpy_out = kernels.deposit_moments_numpy(x, xi, w, n_cells, dx)
    selected = kernels.deposit_moments(x, xi, w, n_cells, dx)
    for a, b in zip(numpy_out, selected):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    vals = rng.standard_normal(n_cells)
    assert np.allclose(
        kernels.gather_numpy(vals, x, dx), kernels.gather(vals, x, dx), rtol=1e-13
    )


def test_numba_selected_by_default_and_disabled_by_env():
    """The JIT path is selected exactly when numba imports and SIM_NUMBA is
    not "0"; SIM_NUMBA=0 always forces the numpy path."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    try:
        from numba import njit  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False

    # The child must import the same dragflow as this process, whether it
    # comes from PYTHONPATH, the working directory or an install.
    package_root = str(Path(kernels.__file__).resolve().parents[1])
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, base.get("PYTHONPATH")) if p
    )
    code = "import dragflow.kernels as k; print(k.HAVE_NUMBA)"

    def selected(env):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    default_env = {k: v for k, v in base.items() if k != "SIM_NUMBA"}
    assert selected(default_env) == str(numba_imports)
    assert selected({**base, "SIM_NUMBA": "0"}) == "False"


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
