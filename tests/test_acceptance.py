"""Acceptance suite: one test per criterion, at its stated tolerance.

Reference configuration: dim=1, N=64, gamma=2 (so the pressure potential is
exactly (r-1)^2), mu=1, lam=0, unit background density, single-mode
amplitudes 0.05, t_end=20, RK4.  Each test prints one summary line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them live.
"""
import math

import numpy as np
import pytest

import dragflow.functionals as fn
from dragflow.dynamics import FluidParams
from dragflow.grid import Grid, random_band_limited
from dragflow.initial import InitSpec, generate_initial
from dragflow.kinetic import compare_once
from dragflow.stepping import Status, TimeConfig, run

PARAMS = FluidParams(gamma=2.0, mu=1.0, lam=0.0)
GRID_N = 64
AMPLITUDE = 0.05
T_END = 20.0


def reference_spec(phase_v=0.0, amp=AMPLITUDE):
    return InitSpec(
        kind="single_mode",
        base_rho=1.0,
        amplitudes={"rho": amp, "u": amp, "n": amp, "v": amp},
        phases={"v": phase_v},
    )


def reference_cfg(cfl_scale=1.0, t_end=T_END, record_every=50):
    return TimeConfig(
        t_end=t_end,
        cfl_advective=0.4 * cfl_scale,
        cfl_diffusive=0.25 * cfl_scale,
        dt_max=1e-2,
        scheme="rk4",
        record_every=record_every,
    )


def do_run(cfl_scale=1.0, t_end=T_END, record_every=50, phase_v=0.0, amp=AMPLITUDE):
    grid = Grid(1, GRID_N)
    state = generate_initial(reference_spec(phase_v, amp), grid)
    result = run(state, PARAMS, reference_cfg(cfl_scale, t_end, record_every))
    assert result.status == Status.COMPLETED
    return result


@pytest.fixture(scope="session")
def reference_run():
    return do_run()


@pytest.fixture(scope="session")
def reference_run_half():
    return do_run(cfl_scale=0.5, record_every=100)


@pytest.fixture(scope="session")
def reference_run_fine():
    return do_run(cfl_scale=0.25, record_every=200)


@pytest.fixture(scope="session")
def variant_run():
    # v phase pi/2 makes the initial mean fluid momentum nonzero, so the
    # two mean velocities start apart
    return do_run(phase_v=math.pi / 2)


@pytest.fixture(scope="session")
def refinement_runs():
    # short horizon at three time steps for residual-order measurements
    return [
        do_run(cfl_scale=s, t_end=2.0, record_every=int(25 / s))
        for s in (1.0, 0.5, 0.25)
    ]


def interior(records):
    return [r for r in records if not math.isnan(r.residuals["energy_balance"])]


def series(result, name):
    return np.array([getattr(r.functionals, name) for r in result.records])


def momentum_scale(result):
    return max(
        float(np.max(np.abs(result.records[0].mom_total))),
        math.sqrt(result.records[0].functionals.E_dev),
    )


def test_criterion_1_conservation(reference_run, reference_run_half):
    recs = reference_run.records
    mass = np.array([r.averages.rho_c for r in recs])
    mass_drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    assert mass_drift <= 1e-8

    mean_n = float(np.max(np.abs([r.mass_n for r in recs])))
    assert mean_n <= 1e-8

    def mom_drift(result):
        mom = np.array([r.mom_total for r in result.records])
        return float(np.max(np.abs(mom - mom[0]))) / momentum_scale(result)

    drift = mom_drift(reference_run)
    drift_half = mom_drift(reference_run_half)
    assert drift <= 1e-6
    # Runge-Kutta steps preserve linear invariants exactly, so both drifts
    # sit at the accumulation round-off floor far below the requirement;
    # the 8x refinement check therefore carries an explicit floor that
    # still catches any genuine scheme leak
    floor = 1e-12
    assert drift_half <= max(drift / 8.0, floor)
    print(
        f"ACCEPTANCE 1 conservation: mass {mass_drift:.2e} mean_n {mean_n:.2e} "
        f"momentum {drift:.2e} (half-dt {drift_half:.2e}) PASS"
    )


def test_criterion_2_energy_balance(reference_run_fine, refinement_runs):
    worst = 0.0
    for rec in interior(reference_run_fine.records):
        worst = max(worst, abs(rec.residuals["energy_balance"]) / rec.functionals.D)
    assert worst <= 1e-6

    errs = [
        max(abs(r.residuals["energy_balance"]) for r in interior(res.records))
        for res in refinement_runs
    ]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9
    print(
        f"ACCEPTANCE 2 energy balance: max|res|/D {worst:.2e} "
        f"orders {['%.2f' % o for o in orders]} PASS"
    )


def test_criterion_3_esigma_balance(reference_run, refinement_runs):
    errs = [
        max(abs(r.residuals["esigma_balance"]) for r in interior(res.records))
        for res in refinement_runs
    ]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9

    es = series(reference_run, "E_sigma")
    increases = np.diff(es)
    assert np.all(increases <= 1e-9 * es[:-1])
    print(
        f"ACCEPTANCE 3 corrected-energy balance: orders {['%.2f' % o for o in orders]} "
        f"max rel increase {float(np.max(increases / es[:-1])):.2e} PASS"
    )


def test_criterion_4_exponential_decay(reference_run):
    times = [r.t for r in reference_run.records]
    fit = fn.decay_fit(times, series(reference_run, "E_sigma"), window=(4.0, 20.0))
    assert fit.lambda_hat > 0.0
    assert fit.r_squared > 0.99

    l_series = series(reference_run, "L")
    assert l_series[-1] <= 1e-3 * l_series[0]

    lam_hats = []
    for amp in (0.01, 0.02, 0.05):
        res = do_run(t_end=10.0, amp=amp)
        row_fit = fn.decay_fit(
            [r.t for r in res.records], series(res, "L")
        )
        lam_hats.append(row_fit.lambda_hat)
    assert all(lam > 0.0 for lam in lam_hats)
    print(
        f"ACCEPTANCE 4 decay: lambda {fit.lambda_hat:.4f} r2 {fit.r_squared:.5f} "
        f"L ratio {l_series[-1] / l_series[0]:.2e} study {['%.3f' % l for l in lam_hats]} PASS"
    )


def test_criterion_5_alignment(variant_run):
    av0 = variant_run.records[0].averages
    gap0 = float(np.linalg.norm(av0.m_c - av0.j_c))
    assert gap0 > 1e-4, "variant must start with distinct mean velocities"

    srs = fn.alignment_check(variant_run.records)
    assert srs["u_dist"][-1] <= 1e-3 * srs["u_dist"][0]
    assert srs["v_dist"][-1] <= 1e-3 * srs["v_dist"][0]
    assert srs["mcjc_dist"][-1] <= 1e-3 * srs["mcjc_dist"][0]
    print(
        f"ACCEPTANCE 5 alignment: u {srs['u_dist'][-1] / srs['u_dist'][0]:.2e} "
        f"v {srs['v_dist'][-1] / srs['v_dist'][0]:.2e} "
        f"gap {srs['mcjc_dist'][-1] / srs['mcjc_dist'][0]:.2e} PASS"
    )


def test_criterion_6_uniform_drag_oracle():
    grid = Grid(1, 16)
    spec = InitSpec(kind="uniform_drag", amplitudes={"u": 1.0, "v": 0.0})
    state = generate_initial(spec, grid)
    cfg = TimeConfig(t_end=1.0, dt_max=1e-3, record_every=10**9)
    result = run(state, PARAMS, cfg)
    assert result.status == Status.COMPLETED
    u = float(np.mean(result.final_state.m / result.final_state.rho))
    v = float(np.mean(result.final_state.j / (1.0 + result.final_state.n)))
    rel_err = abs((u - v) - math.exp(-2.0)) / math.exp(-2.0)
    assert rel_err <= 1e-7
    print(f"ACCEPTANCE 6 drag relaxation: relative error {rel_err:.2e} PASS")


def test_criterion_7_inequality_suite(
    reference_run, reference_run_fine, variant_run
):
    grid = Grid(1, 16)
    drag_state = generate_initial(
        InitSpec(kind="uniform_drag", amplitudes={"u": 1.0, "v": 0.0}), grid
    )
    drag_run = run(drag_state, PARAMS, TimeConfig(t_end=3.0, dt_max=1e-3, record_every=500))
    assert drag_run.status == Status.COMPLETED

    worst = {"jc_momentum_slack": math.inf, "jc_rate_slack": math.inf}
    worst_dom = math.inf
    worst_eq = math.inf
    n_records = 0
    for result in (reference_run, reference_run_fine, variant_run, drag_run):
        for rec in result.records:
            n_records += 1
            worst["jc_momentum_slack"] = min(
                worst["jc_momentum_slack"], rec.checks["jc_momentum_slack"]
            )
            worst["jc_rate_slack"] = min(
                worst["jc_rate_slack"], rec.checks["jc_rate_slack"]
            )
            worst_dom = min(worst_dom, rec.checks["domination_slack"])
            worst_eq = min(
                worst_eq,
                rec.checks["equiv_lower_slack"],
                rec.checks["equiv_upper_slack"],
            )
    assert worst["jc_momentum_slack"] >= -1e-10
    assert worst["jc_rate_slack"] >= -1e-10
    assert worst_dom >= -1e-12
    assert worst_eq >= -1e-12
    print(
        f"ACCEPTANCE 7 inequalities over {n_records} records: jc slacks "
        f"({worst['jc_momentum_slack']:.2e}, {worst['jc_rate_slack']:.2e}) "
        f"domination {worst_dom:.2e} equivalence {worst_eq:.2e} PASS"
    )


def test_criterion_8_pressure_potential():
    rs = np.linspace(0.0, 2.0, 4001)
    gamma2 = fn.pressure_potential(rs, 1.0, 2.0)
    err2 = float(np.max(np.abs(gamma2 - (rs - 1.0) ** 2)))
    assert err2 <= 1e-10

    def riemann(r, r0, gamma, num=1_000_000):
        h = np.linspace(r0, r, num, endpoint=False) + (r - r0) / num / 2.0
        return r * float(np.sum((h**gamma - r0**gamma) / h**2)) * (r - r0) / num

    worst_rel = 0.0
    for gamma in (1.4, 1.5, 3.0):
        for r in (0.3, 0.7, 1.4, 1.9):
            expected = riemann(r, 1.0, gamma)
            got = fn.pressure_potential(r, 1.0, gamma)
            worst_rel = max(worst_rel, abs(got - expected) / abs(expected))
    assert worst_rel <= 1e-8

    for gamma in (1.4, 1.5, 2.0, 3.0):
        c1, c2 = fn.pressure_potential_bounds(1.0, 2.0, gamma)
        assert 0.0 < c1 <= c2 < math.inf
    print(
        f"ACCEPTANCE 8 pressure potential: gamma2 err {err2:.2e} "
        f"vs Riemann {worst_rel:.2e} bounds positive PASS"
    )


def test_criterion_9_elliptic_suite():
    grid = Grid(1, GRID_N)
    rng = np.random.default_rng(42)
    worst_poisson = 0.0
    worst_div = 0.0
    worst_poincare = 0.0
    cos_x = np.cos(grid.coords()[0])  # attains the Poincare constant, 1
    for f in [cos_x] + [random_band_limited(grid, rng) for _ in range(50)]:
        fl2 = grid.norms(f).l2
        phi = grid.poisson_mean_zero(f)
        worst_poisson = max(
            worst_poisson, grid.norms(grid.laplacian(phi) - f).l2 / fl2
        )
        lift = grid.bogovskii(f)
        worst_div = max(worst_div, grid.norms(grid.divergence(lift) - f).l2 / fl2)
        norms = grid.norms(f)
        grad_l2 = math.sqrt(norms.h1**2 - norms.l2**2)
        worst_poincare = max(worst_poincare, norms.l2 / grad_l2)
    assert worst_poisson <= 1e-10
    assert worst_div <= 1e-10
    assert abs(worst_poincare - 1.0) <= 1e-12  # the bound, attained by cos x
    print(
        f"ACCEPTANCE 9 elliptic: poisson {worst_poisson:.2e} divergence {worst_div:.2e} "
        f"poincare {worst_poincare:.6f} PASS"
    )


def test_criterion_10_characteristic_bound(reference_run):
    ok, margins = fn.characteristic_lower_bound_check(reference_run.records)
    assert ok
    assert not reference_run.floor_ever_active
    print(
        f"ACCEPTANCE 10 characteristic bound: min margin {min(margins):.2e} "
        f"floor inactive PASS"
    )


def test_criterion_11_kinetic_limit():
    spec = reference_spec()
    base_grid = Grid(1, GRID_N)
    cfg = TimeConfig(t_end=0.5, dt_max=1e-2, record_every=10**9)
    base = compare_once(base_grid, generate_initial(spec, base_grid), PARAMS, cfg, 100_000)
    fine_grid = Grid(1, 2 * GRID_N)
    fine = compare_once(fine_grid, generate_initial(spec, fine_grid), PARAMS, cfg, 400_000)

    assert base.rel_diff <= 0.05
    ratio = fine.rel_diff / base.rel_diff
    assert ratio < 1.0
    assert fine.theta_mass < base.theta_mass
    print(
        f"ACCEPTANCE 11 kinetic limit: rel diff {base.rel_diff:.2%} -> "
        f"{fine.rel_diff:.2%} (ratio {ratio:.2f}) closure {base.theta_mass:.2e} -> "
        f"{fine.theta_mass:.2e} PASS"
    )
