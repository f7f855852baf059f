"""Diagnostics functionals, identities, and inequality checks.

All functionals integrate against the unit-mass measure (grid means), so
closed-form expectations here are the raw-integral values divided by the
domain volume.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dragflow.dynamics as dyn
import dragflow.functionals as fn
from dragflow.dynamics import FluidParams, State, grad_velocity_max
from dragflow.grid import Grid, random_band_limited
from dragflow.initial import InitSpec, generate_initial

PARAMS = FluidParams(gamma=2.0, mu=1.0, lam=0.0)


def make_state(grid, rho, u, n, v):
    return State(grid, rho, rho[None] * u, n, (1.0 + n)[None] * v)


def uniform_state(grid, a=0.0, b=0.0, rho0=1.0):
    return make_state(
        grid,
        np.full(grid.shape, float(rho0)),
        np.full((grid.dim,) + grid.shape, float(a)),
        grid.zeros(),
        np.full((grid.dim,) + grid.shape, float(b)),
    )


def random_small_state(grid, rng, amp=0.05):
    def field():
        return amp * random_band_limited(grid, rng)

    rho = 1.0 + field()
    u = np.stack([field() for _ in range(grid.dim)])
    n = field()
    v = np.stack([field() for _ in range(grid.dim)])
    return make_state(grid, rho, u, n, v)


def evaluate(state, params=PARAMS, sigma=None):
    """One state's functionals and checks, from a fresh recorder."""
    return fn.Recorder(state.grid, params, sigma).evaluate(state)


def window_residuals(before, center, after, params, sigma):
    """Residuals of the record of ``center``, windowed by ``before`` and
    ``after``; each is a (t, state) pair."""
    (t0, s0), (t1, s1), (t2, s2) = before, center, after
    rec = fn.Recorder(s1.grid, params, sigma)
    window = ((t1 - t0, rec.evaluate(s0)), (t2 - t1, rec.evaluate(s2)))
    return rec.record(t1, s1, window=window).residuals


def dominated(ev):
    """L_p <= C * D, with the explicit constant."""
    bound = ev.checks["domination_C"] * ev.functionals.D
    return ev.functionals.L_p <= bound * (1 + 1e-9) + 1e-14


def test_public_names_resolve_once_and_no_one_shot_functional_is_exported():
    # Recorder.evaluate is the one way to evaluate a state
    import dragflow

    assert len(set(dragflow.__all__)) == len(dragflow.__all__)
    for name in dragflow.__all__:
        assert getattr(dragflow, name) is not None, name
    one_shot = (
        "energy_deviation", "total_energy", "dissipation", "lyapunov",
        "interacting_energy", "jc_bounds_check", "dissipation_domination_check",
        "energy_density_e0", "equivalence_constants", "identity_residuals",
    )
    for name in one_shot:
        assert not hasattr(dragflow, name), name
        assert not hasattr(fn, name), name


# -- averages ---------------------------------------------------------------


def test_averages_uniform():
    g = Grid(1, 32)
    state = uniform_state(g, a=2.0, b=3.0)
    av = fn.averages(state)
    assert av.rho_c == pytest.approx(1.0)
    assert av.m_c[0] == pytest.approx(2.0)
    assert av.j_c[0] == pytest.approx(3.0)


def test_averages_constant_velocity_factors_out():
    g = Grid(1, 64)
    x = g.coords()[0]
    state = make_state(
        g, 1.0 + 0.5 * np.cos(x), np.full((1,) + g.shape, 0.7), g.zeros(), g.zeros_vector()
    )
    assert fn.averages(state).m_c[0] == pytest.approx(0.7, rel=1e-12)


def test_averages_weighted_mean_closed_form():
    # mean((1+0.5 cos x) cos x) / mean(1+0.5 cos x) = 0.25
    g = Grid(1, 64)
    x = g.coords()[0]
    state = make_state(g, 1.0 + 0.5 * np.cos(x), np.cos(x)[None], g.zeros(), g.zeros_vector())
    assert fn.averages(state).m_c[0] == pytest.approx(0.25, rel=1e-12)


def test_averages_zero_mass():
    g = Grid(1, 32)
    state = make_state(g, np.zeros(g.shape), g.zeros_vector(), g.zeros(), g.zeros_vector())
    with pytest.raises(fn.ZeroMass):
        fn.averages(state)


# -- energy and dissipation ---------------------------------------------------


def test_total_energy_equilibrium():
    g = Grid(1, 64)
    state = uniform_state(g)
    # only the pressure potential: 2/(gamma-1) at n = 0
    assert evaluate(state).functionals.E == pytest.approx(2.0, rel=1e-12)


def test_total_energy_adds_kinetic_term():
    g = Grid(1, 64)
    e0 = evaluate(uniform_state(g)).functionals.E
    e1 = evaluate(uniform_state(g, a=1.0)).functionals.E
    assert e1 - e0 == pytest.approx(1.0, rel=1e-12)


def test_total_energy_density_mode():
    # gamma=2: 2*mean((1+0.1 cos x)^2) = 2*(1 + 0.005)
    g = Grid(1, 64)
    x = g.coords()[0]
    n = 0.1 * np.cos(x)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), n - np.mean(n), g.zeros_vector())
    assert evaluate(state).functionals.E == pytest.approx(2.0 * 1.005, rel=1e-12)


def test_dissipation_viscous_only():
    # v = sin x, mu=1, lam=0, u=v: both gradient terms coincide in 1-D
    g = Grid(1, 64)
    x = g.coords()[0]
    v = np.sin(x)
    state = make_state(g, np.ones(g.shape), v[None], g.zeros(), v[None])
    assert evaluate(state).functionals.D == pytest.approx(1.0, rel=1e-12)


def test_dissipation_drag_only():
    g = Grid(1, 32)
    state = uniform_state(g, a=1.0, b=0.0)
    assert evaluate(state).functionals.D == pytest.approx(1.0, rel=1e-12)


def test_dissipation_zero_when_aligned():
    g = Grid(1, 32)
    state = uniform_state(g, a=0.4, b=0.4)
    assert evaluate(state).functionals.D < 1e-14


# -- fluctuation functional ---------------------------------------------------


def test_lyapunov_zero_at_aligned_uniform():
    g = Grid(1, 32)
    funcs = evaluate(uniform_state(g, a=0.5, b=0.5)).functionals
    assert funcs.L < 1e-14 and funcs.L_p < 1e-14


def test_lyapunov_closed_form():
    g = Grid(1, 64)
    x = g.coords()[0]
    state = make_state(g, np.ones(g.shape), np.sin(x)[None], g.zeros(), g.zeros_vector())
    funcs = evaluate(state).functionals
    assert funcs.L == pytest.approx(0.5, rel=1e-12)
    assert funcs.L_p == pytest.approx(0.5, rel=1e-12)


def test_lyapunov_minus_lp_is_density_term():
    g = Grid(1, 64)
    rng = np.random.default_rng(4)
    state = random_small_state(g, rng)
    funcs = evaluate(state).functionals
    assert funcs.L - funcs.L_p == pytest.approx(float(np.mean(state.n**2)), rel=1e-12)


def test_lyapunov_zero_iff_aligned():
    g = Grid(1, 64)
    x = g.coords()[0]
    # forward: constructed aligned state has L = 0 (tested above); reverse:
    # each deviation direction makes L strictly positive
    perturbations = [
        make_state(g, np.ones(g.shape), (0.1 * np.sin(x))[None], g.zeros(), g.zeros_vector()),
        make_state(g, np.ones(g.shape), g.zeros_vector(), 0.1 * np.cos(x), g.zeros_vector()),
        uniform_state(g, a=0.2, b=0.1),
    ]
    for state in perturbations:
        assert evaluate(state).functionals.L > 1e-6


# -- pressure potential -------------------------------------------------------


def riemann_potential(r, r0, gamma, num=1_000_000):
    """Brute-force midpoint quadrature oracle for the pressure potential."""
    h = np.linspace(r0, r, num, endpoint=False) + (r - r0) / num / 2.0
    return r * float(np.sum((h**gamma - r0**gamma) / h**2)) * (r - r0) / num


def test_pressure_potential_gamma2_closed_form():
    rs = np.linspace(0.0, 2.0, 2001)
    vals = fn.pressure_potential(rs, 1.0, 2.0)
    assert np.max(np.abs(vals - (rs - 1.0) ** 2)) < 1e-12


def test_pressure_potential_zero_at_base():
    for gamma in (1.4, 2.0, 3.0):
        assert fn.pressure_potential(1.3, 1.3, gamma) == pytest.approx(0.0, abs=1e-14)


def test_pressure_potential_nonnegative():
    rs = np.linspace(0.0, 3.0, 500)
    for gamma in (1.4, 2.0, 3.0):
        assert np.min(fn.pressure_potential(rs, 1.0, gamma)) > -1e-14


@pytest.mark.parametrize("gamma", [1.4, 1.5, 3.0])
def test_pressure_potential_vs_riemann_oracle(gamma):
    for r in (0.3, 0.7, 1.2, 1.9):
        expected = riemann_potential(r, 1.0, gamma)
        got = fn.pressure_potential(r, 1.0, gamma)
        assert got == pytest.approx(expected, rel=1e-8)


def test_pressure_potential_bounds_gamma2():
    # f(r; 1) = (r-1)^2 at gamma = 2: the r = 0 endpoint gives exactly 1, and
    # the deviation form at r_bar = 2 is within round-off of 1
    c1, c2 = fn.pressure_potential_bounds(1.0, 2.0, 2.0)
    assert c1 == pytest.approx(1.0, abs=1e-7)
    assert c2 == pytest.approx(1.0, abs=1e-7)
    assert c1 <= 1.0 <= c2


def test_pressure_potential_bounds_ordered_positive():
    c1, c2 = fn.pressure_potential_bounds(1.0, 1.5, 1.4)
    assert 0.0 < c1 < c2 < math.inf


def mpmath_bounds(r_bar, gamma):
    """Endpoint values of f(r; 1)/(r-1)^2 on [0, r_bar] in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r, g = mpmath.mpf(r_bar), mpmath.mpf(gamma)
        at_r_bar = ((r**g - r) / (g - 1) + (1 - r)) / (r - 1) ** 2
        return float(min(1, at_r_bar)), float(max(1, at_r_bar))


@pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0, 2.0, 3.0])
@pytest.mark.parametrize("r_bar", [1.0 + 1e-6, 1.01, 1.5, 3.0])
def test_pressure_potential_bounds_match_mpmath(gamma, r_bar):
    # f'' is monotone, so the ratio's extremes are its values at r = 0 and
    # r = r_bar; the deviation form loses about eps/(r_bar - 1) relative
    got = fn.pressure_potential_bounds(1.0, r_bar, gamma)
    want = mpmath_bounds(r_bar, gamma)
    assert got == pytest.approx(want, rel=1e-14 + 1e-15 / (r_bar - 1.0), abs=0.0)


@pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0, 2.0])
def test_small_data_sigma_and_lower_constant_positive(gamma):
    # amplitude 0.01 puts max(1+n) within 1% of 1, where a sampled ratio
    # used to lose its precision and sigma collapsed to 0 or below
    g = Grid(1, 64)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.01, "u": 0.01, "n": 0.01, "v": 0.01})
    state = generate_initial(spec, g)
    params = FluidParams(gamma=gamma, mu=1.0)
    assert fn.sigma_default(state, params) > 0.0
    rec = fn.Recorder(g, params).record(0.0, state)
    assert rec.functionals.sigma > 0.0
    assert rec.checks["equiv_c1"] > 0.0
    # the pressure bound is near gamma/2 here, so neither it nor the
    # admissible sigma binds: sigma sits at its 0.01 cap and c1 is the
    # momentum-gap constant rho_c/(rho_c + 1)
    assert rec.functionals.sigma == 0.01
    rho_c = rec.averages.rho_c
    assert rec.checks["equiv_c1"] == pytest.approx(rho_c / (rho_c + 1.0), rel=1e-12)


def test_pressure_potential_ratio_limit():
    # ratio -> f''(r0)/2 = gamma * r0^(gamma-2) / 2 as r -> r0
    for gamma, r0 in ((1.4, 1.0), (2.0, 1.0), (2.5, 1.3)):
        eps = 1e-4
        fd = (
            fn.pressure_potential(r0 + eps, r0, gamma)
            + fn.pressure_potential(r0 - eps, r0, gamma)
        ) / eps**2 / 2.0
        assert fd == pytest.approx(gamma * r0 ** (gamma - 2.0) / 2.0, rel=1e-5)


# -- interacting energy -------------------------------------------------------


def test_interacting_energy_sigma_zero():
    g = Grid(1, 64)
    rng = np.random.default_rng(9)
    state = random_small_state(g, rng)
    inter = evaluate(state, sigma=0.0).functionals
    assert inter.E_sigma == inter.E_script
    assert inter.D_sigma == pytest.approx(inter.D, rel=1e-12)


def test_interacting_energy_zero_at_aligned_equilibrium():
    # fluctuation form: every term vanishes at the aligned uniform state
    g = Grid(1, 32)
    inter = evaluate(uniform_state(g, a=0.3, b=0.3), sigma=0.01).functionals
    assert abs(inter.E_script) < 1e-14
    assert abs(inter.E_sigma) < 1e-14


# -- inequality checks --------------------------------------------------------


def test_jc_bounds_aligned_state():
    g = Grid(1, 32)
    state = uniform_state(g, a=0.3, b=0.3)
    # a fresh recorder takes E(0) from the state it evaluates first
    ev = evaluate(state)
    e0 = ev.functionals.E
    slack_momentum, slack_rate = ev.checks["jc_momentum_slack"], ev.checks["jc_rate_slack"]
    assert slack_momentum >= -1e-10 and slack_rate >= -1e-10
    # u = v: the rate bound is slack by its full right-hand side (zero here)
    assert slack_rate == pytest.approx(0.0, abs=1e-14)
    assert slack_momentum == pytest.approx(e0 - 0.09, rel=1e-10)


def test_jc_bounds_random_states():
    g = Grid(1, 64)
    rng = np.random.default_rng(21)
    for _ in range(100):
        state = random_small_state(g, rng)
        checks = evaluate(state).checks
        assert checks["jc_momentum_slack"] >= -1e-10
        assert checks["jc_rate_slack"] >= -1e-10


def test_dissipation_domination_aligned():
    g = Grid(1, 32)
    ev = evaluate(uniform_state(g, a=0.2, b=0.2))
    assert dominated(ev) and ev.functionals.L_p < 1e-14


def test_dissipation_domination_scalar_case():
    # u, v uniform constants: L_p = (a-b)^2, D = rho_c (a-b)^2, and the
    # explicit constant satisfies C * rho_c >= 2
    g = Grid(1, 32)
    a, b, rho0 = 0.4, 0.1, 0.7
    state = uniform_state(g, a=a, b=b, rho0=rho0)
    ev = evaluate(state)
    assert ev.functionals.L_p == pytest.approx((a - b) ** 2, rel=1e-12)
    assert dominated(ev)
    assert ev.checks["domination_C"] >= 2.0 / min(1.0, rho0)


def test_dissipation_domination_random_states():
    g = Grid(1, 64)
    rng = np.random.default_rng(33)
    for _ in range(100):
        state = random_small_state(g, rng)
        assert dominated(evaluate(state))


def test_equivalence_on_random_states():
    g = Grid(1, 64)
    rng = np.random.default_rng(55)
    for _ in range(50):
        state = random_small_state(g, rng)
        sigma = fn.sigma_default(state, PARAMS)
        ev = evaluate(state, sigma=sigma)
        c1, c2 = ev.checks["equiv_c1"], ev.checks["equiv_c2"]
        assert 0.0 < c1 <= c2
        l_val, e_sigma = ev.functionals.L, ev.functionals.E_sigma
        assert c1 * l_val <= e_sigma * (1 + 1e-9) + 1e-14
        assert e_sigma <= c2 * l_val * (1 + 1e-9) + 1e-14


def test_sigma_default_positive_and_admissible():
    g = Grid(1, 64)
    rng = np.random.default_rng(60)
    state = random_small_state(g, rng)
    sigma = fn.sigma_default(state, PARAMS)
    assert 0.0 < sigma <= 0.01
    assert sigma <= 0.5 * fn.sigma_admissible_max(state, PARAMS)


def test_negative_sigma_is_rejected_when_the_recorder_is_built():
    with pytest.raises(fn.DiagnosticsError, match="nonnegative"):
        fn.Recorder(Grid(1, 32), PARAMS, sigma=-0.1)


# -- pointwise energy density -------------------------------------------------


def test_energy_density_zero_state():
    g = Grid(1, 32)
    integral = evaluate(uniform_state(g)).functionals.E0_integral
    assert integral == pytest.approx(0.0, abs=1e-14)


def test_energy_density_velocity_only():
    g = Grid(1, 32)
    integral = evaluate(uniform_state(g, b=1.0)).functionals.E0_integral
    assert integral == pytest.approx(0.5, rel=1e-12)


def test_energy_density_gamma2_identity():
    # gamma = 2: (1+n)^2 - 1 - 2n = n^2, so E0 = n^2 + (1+n)|v|^2/2
    g = Grid(1, 64)
    x = g.coords()[0]
    n = 0.3 * np.cos(x)
    v = 0.2 * np.sin(x)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), n - np.mean(n), v[None])
    integral = evaluate(state).functionals.E0_integral
    direct = np.mean(state.n**2 + 0.5 * (1 + state.n) * (v) ** 2)
    assert integral == pytest.approx(float(direct), rel=1e-12)


def test_energy_density_hypothesis_guard():
    # x = 0 and pi are nodes, so max|n| is exactly the bound 1/2 of the
    # hypothesis, and E0 is defined; one part in 1e12 more and it is not
    g = Grid(1, 32)
    x = g.coords()[0]
    n = 0.5 * np.cos(x)
    v = 0.2 * np.sin(x)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), n, v[None])
    assert float(np.max(np.abs(state.n))) == 0.5
    ev = evaluate(state)
    gamma = PARAMS.gamma
    e0 = ((1 + n) ** gamma - 1 - gamma * n) / (gamma - 1) + 0.5 * (1 + n) * v**2
    assert math.isfinite(ev.functionals.E0_integral)
    assert ev.functionals.E0_integral == pytest.approx(float(np.mean(e0)), rel=1e-12)
    assert ev.flags == ()
    wide = make_state(g, np.ones(g.shape), g.zeros_vector(), n * (1 + 1e-12), v[None])
    ev = evaluate(wide)
    assert math.isnan(ev.functionals.E0_integral)
    assert ev.flags == ("e0_hypothesis",)


# -- identity residuals -------------------------------------------------------


def test_identity_residuals_stationary():
    g = Grid(1, 32)
    state = uniform_state(g, a=0.2, b=0.2)
    res = window_residuals((0.0, state), (0.1, state.copy()), (0.2, state.copy()), PARAMS, 0.01)
    for val in res.values():
        assert abs(val) < 1e-13


def exact_drag_states(grid, a, b, rho0, times):
    """States on the exact uniform-relaxation trajectory.

    u' = -(u - v), v' = rho0 (u - v): the gap decays at rate (1 + rho0)
    around the conserved weighted mean (rho0 a + b) / (1 + rho0)."""
    states = []
    rate = 1.0 + rho0
    mean = (rho0 * a + b) / rate
    for t in times:
        gap = (a - b) * math.exp(-rate * t)
        u = mean + gap / rate
        v = mean - rho0 * gap / rate
        states.append((t, uniform_state(grid, a=u, b=v, rho0=rho0)))
    return states


def test_identity_residuals_drag_ode_oracle():
    g = Grid(1, 16)
    h = 1e-4
    errs = []
    for hh in (h, h / 2):
        (t0, s0), (t1, s1), (t2, s2) = exact_drag_states(
            g, 0.8, 0.1, 2.0, [0.5 - hh, 0.5, 0.5 + hh]
        )
        res = window_residuals((t0, s0), (t1, s1), (t2, s2), PARAMS, 0.0)
        errs.append(abs(res["momentum_gap"]))
        assert abs(res["fluct_particle"]) < 1e-12
        assert abs(res["fluct_fluid"]) < 1e-12
    # second-order in the sample spacing
    assert errs[1] < errs[0] / 3.0


def test_residuals_second_order_in_dt():
    # residual over a window of integrator steps drops ~4x when dt halves
    from dragflow.stepping import step

    g = Grid(1, 64)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05})
    state = generate_initial(spec, g)
    for _ in range(50):  # move away from t = 0
        state, _ = step(state, PARAMS, 1e-3)

    def window_residual(h):
        s1, _ = step(state, PARAMS, h)
        s2, _ = step(s1, PARAMS, h)
        return window_residuals((0.0, state), (h, s1), (2 * h, s2), PARAMS, 0.01)

    r_coarse = window_residual(2e-3)
    r_fine = window_residual(1e-3)
    for key in ("energy_balance", "esigma_balance"):
        assert abs(r_fine[key]) < abs(r_coarse[key]) / 3.0


# -- decay fitting ------------------------------------------------------------


def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 10.0, 200)
    fit = fn.decay_fit(t, 3.0 * np.exp(-0.7 * t), window=(0.0, 10.0))
    assert fit.lambda_hat == pytest.approx(0.7, abs=1e-10)
    assert fit.c_hat == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_constant_series():
    t = np.linspace(0.0, 5.0, 50)
    fit = fn.decay_fit(t, np.full_like(t, 2.5), window=(0.0, 5.0))
    assert fit.lambda_hat == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_rejects_nonpositive():
    t = np.linspace(0.0, 5.0, 50)
    vals = np.exp(-t)
    vals[10] = 0.0
    with pytest.raises(fn.NonPositiveValues):
        fn.decay_fit(t, vals, window=(0.0, 5.0))
    with pytest.raises(fn.NonPositiveValues):
        fn.decay_fit(t[:5], vals[:5], window=(0.0, 1.0))


def test_decay_fit_rejects_nonfinite():
    # an overflowing E_sigma series reaches the fit as inf, or nan after it
    t = np.linspace(0.0, 5.0, 50)
    vals = np.exp(-t)
    vals[20], vals[30] = math.nan, math.inf
    with pytest.raises(fn.NonPositiveValues, match="finite positive"):
        fn.decay_fit(t, vals, window=(0.0, 5.0))


def test_decay_fit_default_window_drops_transient():
    t = np.linspace(0.0, 10.0, 100)
    vals = np.exp(-0.5 * t)
    vals[: 10] *= 5.0  # contaminate the first 10% only
    fit = fn.decay_fit(t, vals)
    assert fit.window[0] == pytest.approx(2.0)
    assert fit.lambda_hat == pytest.approx(0.5, abs=1e-9)


# -- record-level checks ------------------------------------------------------


def test_characteristic_bound_constant_velocity_run():
    from dragflow.stepping import TimeConfig, run

    g = Grid(1, 32)
    state = uniform_state(g, a=0.3, b=0.3)
    res = run(state, PARAMS, TimeConfig(t_end=1.0, record_every=100))
    ok, margins = fn.characteristic_lower_bound_check(res.records)
    assert ok
    # zero gradients: the bound stays at min(rho_0) up to the tolerance
    delta0 = res.records[0].functionals.min_rho
    for rec, margin in zip(res.records, margins):
        assert margin == pytest.approx(1e-6 * delta0, rel=1e-6)


def test_alignment_target_and_check():
    g = Grid(1, 32)
    a, b = 1.0, 0.0
    state = uniform_state(g, a=a, b=b)
    av0 = fn.averages(state)
    target = fn.alignment_target(av0)
    # equal masses: the common limit is the arithmetic mean of the speeds
    assert target[0] == pytest.approx((a + b) / 2.0)

    from dragflow.stepping import TimeConfig, run

    res = run(state, PARAMS, TimeConfig(t_end=3.0, dt_max=1e-3, record_every=500))
    series = fn.alignment_check(res.records)
    assert series["u_dist"][-1] < 1e-2 * series["u_dist"][0]
    assert series["v_dist"][-1] < 1e-2 * series["v_dist"][0]
    assert series["mcjc_dist"][-1] < 1e-2 * series["mcjc_dist"][0]
    # exact exponential alignment of the scalar relaxation
    gap = series["mcjc_dist"]
    assert gap[-1] == pytest.approx(abs(a - b) * math.exp(-2.0 * res.records[-1].t), rel=1e-5)


def test_alignment_aligned_state_stays_zero():
    from dragflow.stepping import TimeConfig, run

    g = Grid(1, 32)
    state = uniform_state(g, a=0.25, b=0.25)
    res = run(state, PARAMS, TimeConfig(t_end=0.5, record_every=50))
    series = fn.alignment_check(res.records)
    assert max(series["u_dist"]) < 1e-12
    assert max(series["v_dist"]) < 1e-12


# -- one-pass record against independent formulas ----------------------------


@pytest.mark.parametrize("dim, points", [(1, 32), (2, 16), (3, 8)])
def test_windowed_record_matches_public_functionals(dim, points):
    # Recorder.record derives each state's fields once; every value it
    # reports that has a formula of its own must equal that formula on the state
    g = Grid(dim, points)
    rng = np.random.default_rng(70 + dim)
    params = FluidParams(gamma=1.4, mu=0.7, lam=0.2)
    first, before, center, after = (random_small_state(g, rng) for _ in range(4))
    t, h0, h1 = 0.3, 0.01, 0.011
    rec = fn.Recorder(g, params)
    rec.record(0.0, first)
    got = rec.record(t, center, window=((h0, rec.evaluate(before)), (h1, rec.evaluate(after))))

    sigma = fn.sigma_default(first, params)
    assert sigma > 0.0
    target = fn.alignment_target(fn.averages(first)).reshape((-1,) + (1,) * dim)
    u = center.m / center.rho[None]
    v = center.j / (1.0 + center.n)[None]
    n, gamma = center.n, params.gamma
    e0 = ((1 + n) ** gamma - 1 - gamma * n) / (gamma - 1) + 0.5 * (1 + n) * np.sum(v * v, axis=0)
    want = {
        "sigma": sigma,
        "min_rho": float(np.min(center.rho)),
        "min_n1": float(np.min(1.0 + center.n)),
        "grad_u_max": grad_velocity_max(center),
        "u_align_dist": float(np.max(np.sqrt(np.sum((u - target) ** 2, axis=0)))),
        "v_align_dist": float(np.max(np.sqrt(np.sum((v - target) ** 2, axis=0)))),
    }
    for name, value in want.items():
        assert getattr(got.functionals, name) == pytest.approx(value, rel=1e-14, abs=0.0), name
    # the direct pressure deviation cancels its O(1) terms; the record's does not
    assert got.functionals.E0_integral == pytest.approx(float(np.mean(e0)), rel=1e-12, abs=0.0)

    assert set(got.residuals) == set(fn.RESIDUALS)
    assert all(math.isfinite(value) for value in got.residuals.values())
    assert set(got.checks) == {
        "jc_momentum_slack", "jc_rate_slack", "domination_C", "domination_slack",
        "equiv_c1", "equiv_c2", "equiv_lower_slack", "equiv_upper_slack",
    }

    av = fn.averages(center)
    assert got.averages.rho_c == pytest.approx(av.rho_c, rel=1e-14, abs=0.0)
    np.testing.assert_allclose(got.averages.m_c, av.m_c, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got.averages.j_c, av.j_c, rtol=1e-14, atol=0.0)


def test_evaluate_returns_a_record_that_record_completes():
    # evaluate reads the state into a record at t = nan with nan residuals;
    # record sets t, the window's residuals and the flags, and nothing else
    g = Grid(2, 16)
    rng = np.random.default_rng(11)
    rec = fn.Recorder(g, PARAMS)
    states = [random_small_state(g, rng) for _ in range(3)]
    before, center, after = (rec.evaluate(state) for state in states)
    assert math.isnan(center.t) and center.flags == ()
    assert all(math.isnan(value) for value in center.residuals.values())
    got = rec.record(0.2, states[1], window=((0.01, before), (0.01, after)), evaluation=center)
    assert got.t == 0.2 and got.flags == ()
    assert all(math.isfinite(value) for value in got.residuals.values())
    for name in ("averages", "functionals", "mass_n", "mom_total", "checks", "energies", "sinks"):
        assert getattr(got, name) is getattr(center, name), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_record_flags_nonfinite_values_only():
    g = Grid(1, 32)
    x = g.coords()[0]
    rng = np.random.default_rng(5)
    state = random_small_state(g, rng)
    # the endpoint residuals are nan by design
    rec = fn.Recorder(g, PARAMS)
    assert rec.record(0.0, state).flags == ("endpoint",)
    window = tuple((0.01, rec.evaluate(random_small_state(g, rng))) for _ in range(2))
    assert rec.record(0.1, state, window=window).flags == ()
    # so is E0_integral when max|n| > 1/2
    n = 0.6 * np.cos(x)
    wide = make_state(g, np.ones(g.shape), g.zeros_vector(), n - np.mean(n), g.zeros_vector())
    got = fn.Recorder(g, PARAMS).record(0.0, wide)
    assert math.isnan(got.functionals.E0_integral)
    assert got.flags == ("e0_hypothesis", "endpoint")
    # the pressure overflows at gamma = 1e6
    got = fn.Recorder(g, FluidParams(gamma=1e6, mu=1.0)).record(0.0, state)
    assert math.isinf(got.functionals.E)
    assert got.flags == ("endpoint", "nonfinite")


# -- the sigma-weighted terms by parts, against the Bogovskii-lift forms ------


def lift(g, fhat):
    """Spectrum of the Bogovskii lift grad(phi), laplacian(phi) = f, per axis."""
    phi = fhat * g._inv_neg_k2
    return np.stack([ik * phi for ik in g._ik])


def lift_sigma_terms(state, params, sigma):
    """E_sigma - E_script and I4..I10 as the paper writes them: each pairs
    the fluid momentum, the fluxes or the drag with the lift grad(phi),
    laplacian(phi) = n, term by term; the oracle of ``_sigma_terms``."""
    g, d = state.grid, state.grid.dim
    pairs = dyn._pairs(d)
    v = state.j / (1.0 + state.n)[None]
    drag = state.rho[None] * (state.m / state.rho[None] - v)
    j_c = fn._mean_vec(state.j)
    jc_prime = fn._mean_vec(drag)
    flux = np.stack([state.j[a] * v[b] for a, b in pairs])
    jhat, vhat, nhat = g._fft(state.j), g._fft(v), g._fft(state.n)
    p1hat = g._fft(dyn.pressure_minus_one(state.n, params.gamma))
    flux_hat, drag_hat = g._fft(flux), g._fft(drag)
    lift_n = lift(g, nhat)
    dv1 = jhat - j_c.reshape((-1,) + (1,) * d) * nhat
    div_j = sum(g._ik[a] * jhat[a] for a in range(d))
    div_v = sum(g._ik[a] * vhat[a] for a in range(d))
    hess = sum(
        (1.0 if a == b else 2.0) * g.inner(flux_hat[k], g._ik_dealias[b] * lift_n[a])
        for k, (a, b) in enumerate(pairs)
    )
    cross = -2.0 * sigma * float(g.inner(dv1, lift_n).sum())
    terms = (
        sigma * float(hess),
        sigma * float(g.inner(nhat, g._dealias_keep * p1hat)),
        -sigma * params.mu * float(g.inner(vhat, g._k2 * lift_n).sum()),
        -sigma * (params.mu + params.lam) * float(g.inner(div_v, nhat)),
        sigma * float(g.inner(drag_hat, g._dealias_keep * lift_n).sum()),
        -sigma * float(g.inner(dv1, lift(g, div_j)).sum()),
        -sigma * (-float(np.dot(j_c, g.inner(div_j, lift_n)))
                  + float(np.dot(jc_prime, g.inner(nhat, lift_n)))),
    )
    return cross, terms


# measured over 2,000 states drawn as below: every term within 5.5e-17 of
# its lift form, in units of sigma * (1 + mu + |lam|) * E_dev, and E_sigma
# and D_sigma within 4.4e-16 relative
SIGMA_TERM_TOL = 1e-14


@settings(max_examples=60, deadline=None, database=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    kmax_frac=st.floats(0.0, 1.0),
    amp=st.floats(0.01, 0.4),
    gamma=st.floats(1.1, 3.0).filter(lambda x: abs(x - 2.0) > 1e-3),
    mu=st.floats(0.1, 2.0),
    lam_frac=st.floats(-0.9, 1.0).filter(lambda x: abs(x) > 1e-3),
    sigma=st.floats(1e-3, 0.1),
)
def test_by_parts_sigma_terms_match_the_lift_forms(dim, seed, kmax_frac, amp, gamma, mu, lam_frac, sigma):
    g = Grid(dim, {1: 32, 2: 16, 3: 8}[dim])
    rng = np.random.default_rng(seed)
    kmax = 1 + int(kmax_frac * (g.n // 3 - 1))
    bshape = (-1,) + (1,) * dim

    def field():
        return amp * random_band_limited(g, rng, kmax)

    # mean flows, so that j_c, j_c' and m_c are nonzero
    drift_u, drift_v = rng.uniform(-0.5, 0.5, size=(2, dim))
    rho, n = 1.0 + field(), field()
    u = np.stack([field() for _ in range(dim)]) + drift_u.reshape(bshape)
    v = np.stack([field() for _ in range(dim)]) + drift_v.reshape(bshape)
    state = make_state(g, rho, u, n, v)
    params = FluidParams(gamma=gamma, mu=mu, lam=lam_frac * mu)

    ev = fn.Recorder(g, params, sigma).evaluate(state)
    hat = state.spectrum[1]
    div_v_hat = dyn._dot(g._ik, hat, range(dim, 2 * dim))
    got = fn._sigma_terms(g, params, sigma, ev.averages.j_c, hat, g._fft(state.n), div_v_hat)
    want = lift_sigma_terms(state, params, sigma)
    scale = sigma * (1.0 + mu + abs(params.lam)) * ev.functionals.E_dev
    names = ("cross", "I4", "I5", "I6", "I7", "I8", "I9", "I10")
    for name, a, b in zip(names, (got[0],) + got[1], (want[0],) + want[1]):
        assert abs(a - b) <= SIGMA_TERM_TOL * scale, name
    e_sigma = ev.functionals.E_script + want[0]
    d_sigma = ev.functionals.D + sum(want[1])
    assert ev.functionals.E_sigma == pytest.approx(e_sigma, rel=SIGMA_TERM_TOL, abs=0.0)
    assert ev.functionals.D_sigma == pytest.approx(d_sigma, rel=SIGMA_TERM_TOL, abs=0.0)
