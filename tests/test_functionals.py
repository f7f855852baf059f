"""Diagnostics functionals, identities, and inequality checks.

All functionals integrate against the unit-mass measure (grid means), so
closed-form expectations here are the raw-integral values divided by the
domain volume.
"""
import math

import numpy as np
import pytest

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
    assert fn.total_energy(state, PARAMS) == pytest.approx(2.0, rel=1e-12)


def test_total_energy_adds_kinetic_term():
    g = Grid(1, 64)
    e0 = fn.total_energy(uniform_state(g), PARAMS)
    e1 = fn.total_energy(uniform_state(g, a=1.0), PARAMS)
    assert e1 - e0 == pytest.approx(1.0, rel=1e-12)


def test_total_energy_density_mode():
    # gamma=2: 2*mean((1+0.1 cos x)^2) = 2*(1 + 0.005)
    g = Grid(1, 64)
    x = g.coords()[0]
    n = 0.1 * np.cos(x)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), n - np.mean(n), g.zeros_vector())
    assert fn.total_energy(state, PARAMS) == pytest.approx(2.0 * 1.005, rel=1e-12)


def test_dissipation_viscous_only():
    # v = sin x, mu=1, lam=0, u=v: both gradient terms coincide in 1-D
    g = Grid(1, 64)
    x = g.coords()[0]
    v = np.sin(x)
    state = make_state(g, np.ones(g.shape), v[None], g.zeros(), v[None])
    assert fn.dissipation(state, PARAMS) == pytest.approx(1.0, rel=1e-12)


def test_dissipation_drag_only():
    g = Grid(1, 32)
    state = uniform_state(g, a=1.0, b=0.0)
    assert fn.dissipation(state, PARAMS) == pytest.approx(1.0, rel=1e-12)


def test_dissipation_zero_when_aligned():
    g = Grid(1, 32)
    state = uniform_state(g, a=0.4, b=0.4)
    assert fn.dissipation(state, PARAMS) < 1e-14


# -- fluctuation functional ---------------------------------------------------


def test_lyapunov_zero_at_aligned_uniform():
    g = Grid(1, 32)
    l_val, l_p = fn.lyapunov(uniform_state(g, a=0.5, b=0.5), PARAMS)
    assert l_val < 1e-14 and l_p < 1e-14


def test_lyapunov_closed_form():
    g = Grid(1, 64)
    x = g.coords()[0]
    state = make_state(g, np.ones(g.shape), np.sin(x)[None], g.zeros(), g.zeros_vector())
    l_val, l_p = fn.lyapunov(state, PARAMS)
    assert l_val == pytest.approx(0.5, rel=1e-12)
    assert l_p == pytest.approx(0.5, rel=1e-12)


def test_lyapunov_minus_lp_is_density_term():
    g = Grid(1, 64)
    rng = np.random.default_rng(4)
    state = random_small_state(g, rng)
    l_val, l_p = fn.lyapunov(state, PARAMS)
    assert l_val - l_p == pytest.approx(float(np.mean(state.n**2)), rel=1e-12)


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
        l_val, _ = fn.lyapunov(state, PARAMS)
        assert l_val > 1e-6


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
    inter = fn.interacting_energy(state, PARAMS, 0.0)
    assert inter.E_sigma == inter.E_script
    assert inter.D_sigma == pytest.approx(fn.dissipation(state, PARAMS), rel=1e-12)


def test_interacting_energy_zero_at_aligned_equilibrium():
    # fluctuation form: every term vanishes at the aligned uniform state
    g = Grid(1, 32)
    inter = fn.interacting_energy(uniform_state(g, a=0.3, b=0.3), PARAMS, 0.01)
    assert abs(inter.E_script) < 1e-14
    assert abs(inter.E_sigma) < 1e-14


def test_interacting_energy_terms_reported():
    g = Grid(1, 64)
    rng = np.random.default_rng(10)
    state = random_small_state(g, rng)
    inter = fn.interacting_energy(state, PARAMS, 0.01)
    assert set(inter.terms) == {f"I{i}" for i in range(1, 11)}
    assert inter.D_sigma == pytest.approx(sum(inter.terms.values()), rel=1e-9)


# -- inequality checks --------------------------------------------------------


def test_jc_bounds_aligned_state():
    g = Grid(1, 32)
    state = uniform_state(g, a=0.3, b=0.3)
    e0 = fn.total_energy(state, PARAMS)
    res = fn.jc_bounds_check(state, PARAMS, e0)
    assert res.ok
    # u = v: the rate bound is slack by its full right-hand side (zero here)
    assert res.slack_rate == pytest.approx(0.0, abs=1e-14)
    assert res.slack_momentum == pytest.approx(e0 - 0.09, rel=1e-10)


def test_jc_bounds_random_states():
    g = Grid(1, 64)
    rng = np.random.default_rng(21)
    for _ in range(100):
        state = random_small_state(g, rng)
        e0 = fn.total_energy(state, PARAMS)
        res = fn.jc_bounds_check(state, PARAMS, e0)
        assert res.slack_momentum >= -1e-10
        assert res.slack_rate >= -1e-10


def test_dissipation_domination_aligned():
    g = Grid(1, 32)
    res = fn.dissipation_domination_check(uniform_state(g, a=0.2, b=0.2), PARAMS)
    assert res.ok and res.lhs < 1e-14


def test_dissipation_domination_scalar_case():
    # u, v uniform constants: L_p = (a-b)^2, D = rho_c (a-b)^2, and the
    # explicit constant satisfies C * rho_c >= 2
    g = Grid(1, 32)
    a, b, rho0 = 0.4, 0.1, 0.7
    state = uniform_state(g, a=a, b=b, rho0=rho0)
    res = fn.dissipation_domination_check(state, PARAMS)
    assert res.lhs == pytest.approx((a - b) ** 2, rel=1e-12)
    assert res.ok
    assert res.C_explicit >= 2.0 / min(1.0, rho0)


def test_dissipation_domination_random_states():
    g = Grid(1, 64)
    rng = np.random.default_rng(33)
    for _ in range(100):
        state = random_small_state(g, rng)
        assert fn.dissipation_domination_check(state, PARAMS).ok


def test_equivalence_on_random_states():
    g = Grid(1, 64)
    rng = np.random.default_rng(55)
    for _ in range(50):
        state = random_small_state(g, rng)
        sigma = fn.sigma_default(state, PARAMS)
        c1, c2 = fn.equivalence_constants(state, PARAMS, sigma)
        assert 0.0 < c1 <= c2
        l_val, _ = fn.lyapunov(state, PARAMS)
        inter = fn.interacting_energy(state, PARAMS, sigma)
        assert c1 * l_val <= inter.E_sigma * (1 + 1e-9) + 1e-14
        assert inter.E_sigma <= c2 * l_val * (1 + 1e-9) + 1e-14


def test_sigma_default_positive_and_admissible():
    g = Grid(1, 64)
    rng = np.random.default_rng(60)
    state = random_small_state(g, rng)
    sigma = fn.sigma_default(state, PARAMS)
    assert 0.0 < sigma <= 0.01
    assert sigma <= 0.5 * fn.sigma_admissible_max(state, PARAMS)


# -- pointwise energy density -------------------------------------------------


def test_energy_density_zero_state():
    g = Grid(1, 32)
    integral, _ = fn.energy_density_e0(uniform_state(g), PARAMS)
    assert integral == pytest.approx(0.0, abs=1e-14)


def test_energy_density_velocity_only():
    g = Grid(1, 32)
    integral, (lo, hi) = fn.energy_density_e0(uniform_state(g, b=1.0), PARAMS)
    assert integral == pytest.approx(0.5, rel=1e-12)
    assert lo == pytest.approx(0.5, rel=1e-10)
    assert hi == pytest.approx(0.5, rel=1e-10)


def test_energy_density_gamma2_identity():
    # gamma = 2: (1+n)^2 - 1 - 2n = n^2, so E0 = n^2 + (1+n)|v|^2/2
    g = Grid(1, 64)
    x = g.coords()[0]
    n = 0.3 * np.cos(x)
    v = 0.2 * np.sin(x)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), n - np.mean(n), v[None])
    integral, (lo, hi) = fn.energy_density_e0(state, PARAMS)
    direct = np.mean(state.n**2 + 0.5 * (1 + state.n) * (v) ** 2)
    assert integral == pytest.approx(float(direct), rel=1e-12)
    assert 0.0 < lo <= hi


def test_energy_density_hypothesis_guard():
    g = Grid(1, 32)
    x = g.coords()[0]
    n = 0.6 * np.cos(x)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), n - np.mean(n), g.zeros_vector())
    with pytest.raises(fn.HypothesisViolated):
        fn.energy_density_e0(state, PARAMS)


# -- identity residuals -------------------------------------------------------


def test_identity_residuals_stationary():
    g = Grid(1, 32)
    state = uniform_state(g, a=0.2, b=0.2)
    res = fn.identity_residuals(
        (0.0, state), (0.1, state.copy()), (0.2, state.copy()), PARAMS, 0.01
    )
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
        res = fn.identity_residuals((t0, s0), (t1, s1), (t2, s2), PARAMS, 0.0)
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
        return fn.identity_residuals((0.0, state), (h, s1), (2 * h, s2), PARAMS, 0.01)

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


# -- one-pass record against the standalone functionals ----------------------


@pytest.mark.parametrize("dim, points", [(1, 32), (2, 16), (3, 8)])
def test_windowed_record_matches_public_functionals(dim, points):
    # Recorder.record derives each state's fields once; every value it
    # reports must equal the standalone function evaluated on the state
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
    av0 = fn.averages(first)
    e0 = fn.total_energy(first, params)
    target = fn.alignment_target(av0).reshape((-1,) + (1,) * dim)
    u = center.m / center.rho[None]
    v = center.j / (1.0 + center.n)[None]
    l_val, l_p = fn.lyapunov(center, params)
    inter = fn.interacting_energy(center, params, sigma)
    want = fn.Functionals(
        E=fn.total_energy(center, params),
        D=fn.dissipation(center, params),
        L=l_val,
        L_p=l_p,
        E_script=inter.E_script,
        E_sigma=inter.E_sigma,
        D_sigma=inter.D_sigma,
        E0_integral=fn.energy_density_e0(center, params)[0],
        sigma=sigma,
        min_rho=center.min_rho(),
        min_n1=center.min_n1(),
        grad_u_max=grad_velocity_max(center),
        E_dev=fn.energy_deviation(center, params),
        u_align_dist=float(np.max(np.sqrt(np.sum((u - target) ** 2, axis=0)))),
        v_align_dist=float(np.max(np.sqrt(np.sum((v - target) ** 2, axis=0)))),
    )
    for name, value in vars(want).items():
        assert getattr(got.functionals, name) == pytest.approx(value, rel=1e-14, abs=0.0), name

    residuals = fn.identity_residuals(
        (t - h0, before), (t, center), (t + h1, after), params, sigma
    )
    assert set(got.residuals) == set(residuals)
    for name, value in residuals.items():
        assert got.residuals[name] == pytest.approx(value, rel=1e-14, abs=0.0), name

    jc = fn.jc_bounds_check(center, params, e0)
    dom = fn.dissipation_domination_check(center, params)
    c1, c2 = fn.equivalence_constants(center, params, sigma)
    checks = {
        "jc_momentum_slack": jc.slack_momentum,
        "jc_rate_slack": jc.slack_rate,
        "domination_C": dom.C_explicit,
        "domination_slack": dom.rhs - dom.lhs,
        "equiv_c1": c1,
        "equiv_c2": c2,
        "equiv_lower_slack": inter.E_sigma - c1 * l_val,
        "equiv_upper_slack": c2 * l_val - inter.E_sigma,
    }
    assert set(got.checks) == set(checks)
    for name, value in checks.items():
        assert got.checks[name] == pytest.approx(value, rel=1e-14, abs=0.0), name

    av = fn.averages(center)
    assert got.averages.rho_c == pytest.approx(av.rho_c, rel=1e-14, abs=0.0)
    np.testing.assert_allclose(got.averages.m_c, av.m_c, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(got.averages.j_c, av.j_c, rtol=1e-14, atol=0.0)


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
