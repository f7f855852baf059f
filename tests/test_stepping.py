"""Time stepping: CFL formula, scheme order, exact drag-relaxation oracle,
statuses, and conservation over runs."""
import ctypes
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dragflow.functionals as fn
from dragflow import dynamics, stepping
from dragflow.dynamics import (
    FluidParams,
    NonPositiveDensity,
    State,
    grad_velocity_max,
    max_speed,
    rhs,
)
from dragflow.grid import Grid, random_band_limited
from dragflow.initial import InitSpec, generate_initial
from dragflow.stepping import (
    IntegrationError,
    Status,
    TimeConfig,
    _rk_advance,
    cfl_dt,
    compute_dt,
    run,
    step,
)

PARAMS = FluidParams(gamma=2.0, mu=1.0, lam=0.0)
# the schemes TimeConfig accepts, one case each in the integrator's tests
SCHEMES = ["rk4"]


def uniform_state(grid, a, b, rho0=1.0):
    return State(
        grid,
        np.full(grid.shape, rho0),
        np.full((grid.dim,) + grid.shape, rho0 * a),
        grid.zeros(),
        np.full((grid.dim,) + grid.shape, b),
    )


def single_mode_state(grid, amp=0.05, phase_v=0.0):
    spec = InitSpec(
        kind="single_mode",
        amplitudes={"rho": amp, "u": amp, "n": amp, "v": amp},
        phases={"v": phase_v},
    )
    return generate_initial(spec, grid)


def test_time_config_validation():
    with pytest.raises(ValueError):
        TimeConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        TimeConfig(t_end=1.0, cfl_advective=0.0)
    with pytest.raises(ValueError):
        TimeConfig(t_end=1.0, cfl_diffusive=1.5)
    for scheme in ("euler", "ssp_rk3"):
        with pytest.raises(ValueError, match="scheme must be 'rk4'"):
            TimeConfig(t_end=1.0, scheme=scheme)
    with pytest.raises(ValueError):
        TimeConfig(t_end=1.0, record_every=0)


def test_compute_dt_formula():
    g = Grid(1, 64)
    state = uniform_state(g, 0.0, 0.0)
    cfg = TimeConfig(t_end=1.0, cfl_advective=0.4, cfl_diffusive=0.25, dt_max=1e-2)
    dx = 2 * np.pi / 64
    expected = min(0.4 * dx / np.sqrt(2.0), 0.25 * dx * dx / 2.0, 1e-2)
    assert compute_dt(state, PARAMS, cfg) == pytest.approx(expected, rel=1e-12)


def test_compute_dt_scaling_with_resolution():
    cfg = TimeConfig(t_end=1.0, dt_max=1e6)
    cfg_adv = TimeConfig(t_end=1.0, dt_max=1e6, cfl_diffusive=1.0)
    dts, advs = [], []
    for n in (32, 64):
        g = Grid(1, n)
        state = uniform_state(g, 0.0, 0.0)
        dts.append(compute_dt(state, PARAMS, cfg))
        speed_dominated = TimeConfig(t_end=1.0, dt_max=1e6, cfl_diffusive=1.0)
        advs.append(
            min(
                0.4 * g.dx / np.sqrt(2.0),
                speed_dominated.cfl_diffusive * g.dx**2 / 2.0,
            )
        )
    # diffusive candidate dominates here: quartered when n doubles
    assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)


def test_compute_dt_dt_max_clamp():
    g = Grid(1, 16)
    state = uniform_state(g, 0.0, 0.0)
    cfg = TimeConfig(t_end=1.0, dt_max=1e-6)
    assert compute_dt(state, PARAMS, cfg) == 1e-6


def test_uniform_equilibrium_is_fixed_point():
    g = Grid(1, 32)
    state = uniform_state(g, 0.2, 0.2)
    new, info = step(state, PARAMS, 1e-2)
    assert np.max(np.abs(new.m - state.m)) < 1e-15
    assert np.max(np.abs(new.j - state.j)) < 1e-15
    assert not info.floor_active


def test_drag_ode_step_accuracy():
    # u' = -(u - v), v' = (u - v): (u - v)(t) = (a - b) e^{-2t}
    g = Grid(1, 32)
    state = uniform_state(g, 1.0, 0.0)
    dt = 1e-3
    for _ in range(1000):
        state, _ = step(state, PARAMS, dt)
    u = float(np.mean(state.m / state.rho))
    v = float(np.mean(state.j / (1 + state.n)))
    assert abs((u - v) - math.exp(-2.0)) < 1e-9 * math.exp(-2.0)


@pytest.mark.parametrize("scheme,expected_order", [("rk4", 4)])
def test_scheme_order_by_richardson(scheme, expected_order):
    # fixed-interval global error ratio ~ 2^order when dt is halved
    g = Grid(1, 32)
    params = FluidParams(gamma=2.0, mu=0.05, lam=0.0)

    def advance(dt, nsteps):
        state = single_mode_state(g, amp=0.1, phase_v=0.7)
        for _ in range(nsteps):
            state, _ = step(state, params, dt)
        return state

    dt = 2e-2
    ref = advance(dt / 8, 16)
    errs = []
    for scale, nsteps in ((1, 2), (2, 4)):
        got = advance(dt / scale, nsteps)
        errs.append(
            max(
                np.max(np.abs(got.m - ref.m)),
                np.max(np.abs(got.n - ref.n)),
                np.max(np.abs(got.j - ref.j)),
            )
        )
    ratio = errs[0] / errs[1]
    assert ratio > 2 ** (expected_order - 0.5)


def random_state(dim, n, seed, amp=0.1):
    """A band-limited admissible state with every field varying on every axis."""
    g = Grid(dim, n)
    rng = np.random.default_rng(seed)

    def field():
        return amp * random_band_limited(g, rng)

    rho = 1.0 + field()
    u = np.stack([field() for _ in range(dim)])
    n_pert = field()
    v = np.stack([field() for _ in range(dim)])
    return State(g, rho, rho[None] * u, n_pert, (1.0 + n_pert)[None] * v)


def _per_field_step(fields, grid, params, dt):
    """The integrator as it was on a tuple of fields (rho, m, n, j): each
    stage and the final sum copy the fields, then add c * k field by field.
    The oracle for the stacked integrator."""

    def f(y):
        r = State.of(grid, rhs(State(grid, *y), params))
        return r.rho, r.m, r.n, r.j

    def combine(base, terms):
        out = [a.copy() for a in base]
        for c, k in terms:
            for a, d in zip(out, k):
                a += c * d
        return out

    k1 = f(fields)
    k2 = f(combine(fields, [(0.5 * dt, k1)]))
    k3 = f(combine(fields, [(0.5 * dt, k2)]))
    k4 = f(combine(fields, [(dt, k3)]))
    terms = [(dt / 6.0, k1), (dt / 3.0, k2), (dt / 3.0, k3), (dt / 6.0, k4)]
    new = combine(fields, terms)
    new[2] -= float(np.mean(new[2]))
    return tuple(new)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("drag_on", [True, False])
def test_stacked_step_equals_the_per_field_integrator_bit_for_bit(dim, n, scheme, drag_on):
    state = random_state(dim, n, seed=10 * dim + drag_on)
    params = FluidParams(gamma=1.4, mu=0.5, lam=-0.3, drag_on=drag_on)
    dt = compute_dt(state, params, TimeConfig(t_end=1.0, scheme=scheme))
    fields = (state.rho, state.m, state.n, state.j)
    # the second step starts from the primitives the first one left
    for _ in range(2):
        state, _ = step(state, params, dt)
        fields = _per_field_step(fields, state.grid, params, dt)
        for name, got, want in zip(("rho", "m", "n", "j"), (state.rho, state.m, state.n, state.j), fields):
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
def test_shared_primitives_equal_a_fresh_evaluation(dim, n):
    state = random_state(dim, n, seed=dim)
    # a small advective CFL makes the signal speed set dt
    cfg = TimeConfig(t_end=1.0, cfl_advective=0.01, dt_max=1.0)
    new, _ = step(state, PARAMS, compute_dt(state, PARAMS, cfg))
    assert new.primitives is not None
    fresh = new.copy()
    assert fresh.primitives is None
    assert max_speed(new, PARAMS) == max_speed(fresh, PARAMS)
    assert compute_dt(new, PARAMS, cfg) == compute_dt(fresh, PARAMS, cfg)
    assert grad_velocity_max(new) == grad_velocity_max(fresh)
    dt = compute_dt(fresh, PARAMS, cfg)
    after_shared, _ = step(new, PARAMS, dt)
    after_fresh, _ = step(fresh, PARAMS, dt)
    assert after_shared.y.tobytes() == after_fresh.y.tobytes()
    # the first stage drops what it used
    assert new.primitives is None


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("drag_on", [True, False])
def test_rhs_of_an_evaluated_state_equals_rhs_of_a_copy(dim, n, drag_on):
    # the evaluation leaves the transform of rhs's stack on the state (with
    # the drag rows, which rhs reads only when the drag is on); the stage
    # that takes it gives the rates bit for bit, and drops it
    params = FluidParams(gamma=1.4, mu=0.5, lam=0.7, drag_on=drag_on)
    state, _ = step(random_state(dim, n, seed=dim), params, 1e-3)
    fn.Recorder(state.grid, params).evaluate(state)
    assert state.spectrum is not None and state.spectrum[0] is params
    want = rhs(state.copy(), params)
    assert rhs(state, params).tobytes() == want.tobytes()
    assert state.spectrum is None and state.primitives is None
    # a spectrum made for other params is not taken, and is dropped too
    fn.Recorder(state.grid, FluidParams(gamma=1.6, mu=0.5, lam=0.7)).evaluate(state)
    assert rhs(state, params).tobytes() == want.tobytes()
    assert state.spectrum is None


@pytest.mark.parametrize("name", ["rho", "m", "n", "j"])
def test_a_field_write_drops_the_spectrum(name):
    state = random_state(2, 16, seed=3)
    fn.Recorder(state.grid, PARAMS).evaluate(state)
    assert state.spectrum is not None
    setattr(state, name, getattr(state, name) * 1.01)
    assert state.spectrum is None and state.primitives is None


@pytest.mark.parametrize("t_end", [0.0, 0.03])
def test_run_returns_a_final_state_without_a_spectrum(t_end):
    # the final state is evaluated for the end record, and no stage follows
    state = random_state(2, 16, seed=4, amp=0.05)
    res = run(state, PARAMS, TimeConfig(t_end=t_end))
    assert res.status == Status.COMPLETED and res.steps == round(100 * t_end)
    assert res.final_state.spectrum is None
    assert state.spectrum is None  # run reads a view of the caller's state


def test_an_evaluation_stays_under_the_step_peak():
    # run evaluates a new state while the previous one is alive: its stack,
    # transformed and kept, must not set a new live-memory peak
    state = random_state(3, 16, seed=6, amp=0.05)
    recorder = fn.Recorder(state.grid, PARAMS)
    recorder.evaluate(state.copy())
    step(state.copy(), PARAMS, 1e-3)  # the grid's tables, built once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        new, _ = step(state, PARAMS, 1e-3)
        step_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        recorder.evaluate(new, grad_velocity_max(new))
        evaluate_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert evaluate_peak < step_peak, (evaluate_peak, step_peak)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_leaves_its_input_untouched(scheme):
    state, _ = step(random_state(2, 16, seed=5), PARAMS, 1e-3)
    before = state.y.copy()
    new, _ = step(state, PARAMS, 1e-3)
    assert state.y.tobytes() == before.tobytes()
    assert not np.shares_memory(new.y, state.y)
    for name in ("rho", "m", "n", "j"):
        assert np.shares_memory(getattr(new, name), new.y), name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_guarded_advance_returns_the_reprojection(scheme):
    # constant rates: row 0 gains a mean of about dt, which the advance removes
    y = np.array([[0.5, -0.25, -0.25], [1.0, 2.0, 3.0]])
    rate = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
    new, reproj = _rk_advance(y, lambda y_s: rate.copy(), 0.1)
    assert reproj == pytest.approx(0.2, rel=1e-12)
    assert abs(float(np.mean(new[0]))) < 1e-16
    np.testing.assert_allclose(new[0], y[0] + 0.1 * rate[0] - 0.2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(new[1], y[1] + 0.1, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_guarded_advance_holds_the_sum_and_one_stage_while_the_rates_run(scheme):
    # besides y, only the running sum and the stage buffer are live on every
    # call of f: no earlier rate is still held (keeping k1..k3 read 4 stacks)
    y = np.random.default_rng(9).standard_normal((8, 16, 16, 16))
    before = y.copy()
    live = []

    def f(y_s):
        live.append(tracemalloc.get_traced_memory()[0])
        return y_s * 0.5

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _rk_advance(y, f, 0.1)
    finally:
        tracemalloc.stop()
    stacks = [(b - base) / y.nbytes for b in live]
    assert len(stacks) == 4
    assert max(stacks) <= 2.02, stacks
    assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_guarded_advance_stops_on_a_stage_vacuum(scheme):
    calls = []

    def f(y_s):
        calls.append(y_s)
        if len(calls) > 1:
            raise NonPositiveDensity("fluid rates: min(1+n) <= 0")
        return np.zeros_like(y_s)

    with pytest.raises(IntegrationError) as info:
        _rk_advance(np.zeros((2, 4)), f, 0.1)
    assert info.value.status == Status.FLUID_VACUUM_BREACH


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guarded_advance_stops_on_a_non_finite_result():
    with pytest.raises(IntegrationError) as info:
        _rk_advance(np.zeros((2, 4)), lambda y_s: np.full_like(y_s, np.inf), 0.1)
    assert info.value.status == Status.BLOWUP


def test_cfl_dt_stops_on_a_non_finite_speed():
    with pytest.raises(IntegrationError) as info:
        cfl_dt(math.inf, 0.1, PARAMS, TimeConfig(t_end=1.0))
    assert info.value.status == Status.BLOWUP


def test_step_rejects_absurd_dt():
    g = Grid(1, 32)
    state = single_mode_state(g, amp=0.05)

    with pytest.raises(IntegrationError):
        step(state, PARAMS, 1e6)  # leaves the admissible set within one step


def test_run_zero_horizon():
    g = Grid(1, 32)
    res = run(single_mode_state(g), PARAMS, TimeConfig(t_end=0.0))
    assert res.status == Status.COMPLETED
    assert len(res.records) == 1 and res.records[0].t == 0.0


def test_drag_ode_run_alignment():
    g = Grid(1, 16)
    state = uniform_state(g, 1.0, 0.0)
    cfg = TimeConfig(t_end=3.0, dt_max=1e-3, record_every=500)
    res = run(state, PARAMS, cfg)
    assert res.status == Status.COMPLETED
    u = float(np.mean(res.final_state.m / res.final_state.rho))
    v = float(np.mean(res.final_state.j / (1 + res.final_state.n)))
    assert abs((u - v) - math.exp(-6.0)) < 1e-6


def test_run_mass_momentum_conservation():
    g = Grid(1, 64)
    state = single_mode_state(g, amp=0.05, phase_v=0.5)
    cfg = TimeConfig(t_end=2.0, record_every=100)
    res = run(state, PARAMS, cfg)
    assert res.status == Status.COMPLETED
    mass = np.array([r.averages.rho_c for r in res.records])
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-12
    mean_n = np.array([r.mass_n for r in res.records])
    assert np.max(np.abs(mean_n)) < 1e-14
    mom = np.array([r.mom_total for r in res.records])
    assert np.max(np.abs(mom - mom[0])) < 1e-13
    assert res.reprojection_max < 1e-10
    assert not res.floor_ever_active


def test_energy_monotone_along_run():
    g = Grid(1, 64)
    state = single_mode_state(g, amp=0.05)
    res = run(state, PARAMS, TimeConfig(t_end=2.0, record_every=50))
    e = np.array([r.functionals.E for r in res.records])
    assert np.all(np.diff(e) <= 1e-9 * e[0])


def test_unstable_cfl_stops_with_breach_status():
    g = Grid(1, 64)
    state = single_mode_state(g, amp=0.05)
    cfg = TimeConfig(t_end=2.0, cfl_diffusive=1.0, dt_max=1.0)
    res = run(state, PARAMS, cfg)
    assert res.status in (
        Status.BLOWUP,
        Status.FLUID_VACUUM_BREACH,
        Status.VACUUM_BREACH,
    )
    assert any(f.startswith("stop:") for f in res.records[-1].flags)


def test_uncomputable_dt_stops_with_blowup_status():
    # (1+n)**(gamma-1) overflows a double at gamma = 1e6, so no dt exists
    g = Grid(1, 32)
    res = run(single_mode_state(g), FluidParams(gamma=1e6, mu=1.0), TimeConfig(t_end=0.5))
    assert res.status == Status.BLOWUP
    assert res.steps == 0
    # the stop record replaces the t=0 record
    assert len(res.records) == 1
    assert res.records[0].flags == ("stop:blowup", "endpoint", "nonfinite")


def test_gradient_steepening_guard():
    # without drag the dispersed phase steepens toward a shock and the
    # guard stops the run before the fields blow up
    g = Grid(1, 64)
    params = FluidParams(gamma=2.0, mu=1.0, lam=0.0, drag_on=False)
    spec = InitSpec(kind="single_mode", amplitudes={"rho": 0.2, "u": 0.9})
    state = generate_initial(spec, g)
    res = run(state, params, TimeConfig(t_end=3.0, record_every=100))
    assert res.status == Status.GRADIENT_STEEPENING
    assert any(f.startswith("stop:") for f in res.records[-1].flags)


@pytest.mark.parametrize("dim,n,t_end", [(2, 24, 0.5), (3, 8, 0.1)])
def test_multidimensional_run_completes_and_conserves(dim, n, t_end):
    g = Grid(dim, n)
    spec = InitSpec(
        kind="single_mode", amplitudes={"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05}
    )
    state = generate_initial(spec, g)
    res = run(state, PARAMS, TimeConfig(t_end=t_end, record_every=20))
    assert res.status == Status.COMPLETED
    mom = np.array([r.mom_total for r in res.records])
    assert np.max(np.abs(mom - mom[0])) < 1e-12
    for rec in res.records:
        for key, val in rec.checks.items():
            if key.endswith("slack"):
                assert val > -1e-12


def test_records_strictly_increasing_and_residuals_present():
    g = Grid(1, 64)
    state = single_mode_state(g, amp=0.05)
    res = run(state, PARAMS, TimeConfig(t_end=1.0, record_every=50))
    times = [r.t for r in res.records]
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    interior = [r for r in res.records[1:-1]]
    assert interior, "expected interior records"
    for rec in interior:
        assert math.isfinite(rec.residuals["energy_balance"])
    assert math.isnan(res.records[0].residuals["energy_balance"])
    assert math.isnan(res.records[-1].residuals["energy_balance"])


def multi_mode_state(grid, seed=0, amp=0.05):
    amps = {"rho": amp, "u": amp, "n": amp, "v": amp}
    spec = InitSpec(kind="multi_mode", amplitudes=amps, modes=3)
    return generate_initial(spec, grid, np.random.default_rng(seed))


def test_run_evaluates_each_state_once():
    # a record every step on 1-D 32, 2-D 16^2 and 3-D 8^3 to t = 0.04: four
    # steps where dt_max binds (2-D, 3-D), nine in 1-D.  Per step: four rhs stages, the first of which
    # takes the spectrum the state's evaluation left on it, so three make a
    # forward call; the new state's evaluation (the rhs stack with its drag
    # rows, then n on its own, forward only); and the guard's gradient of u
    # (one call each way).  The initial state adds its evaluation and guard.
    # A rebuilt neighbour, a second gradient of u or a stage that transforms
    # an evaluated state again adds calls and fields.
    per_step = {1: 30, 2: 63, 3: 104}  # fields transformed forward
    for dim, points in ((1, 32), (2, 16), (3, 8)):
        g = Grid(dim, points)
        state = multi_mode_state(g)
        calls = {"forward": 0, "inverse": 0, "fields": 0}

        def counted(name, transform):
            def wrapper(f, *args):
                calls[name] += 1
                if name == "forward":
                    calls["fields"] += f.size // g.n**dim
                return transform(f, *args)
            return wrapper

        g._fft = counted("forward", g._fft)
        g._ifft = counted("inverse", g._ifft)
        res = run(state, PARAMS, TimeConfig(t_end=0.04, record_every=1))
        assert res.status == Status.COMPLETED and res.steps == (9 if dim == 1 else 4)
        assert len(res.records) == res.steps + 1
        # the rhs stack has 4 dim + 1 + dim (dim + 1) rows with the drag
        rows = 4 * dim + 1 + dim * (dim + 1)
        assert calls == {
            "forward": 6 * res.steps + 3,
            "inverse": 5 * res.steps + 1,
            "fields": per_step[dim] * res.steps + rows + 1 + dim,
        }, dim
        assert per_step[dim] == 4 * rows + 1 + dim


@pytest.mark.parametrize("every", [1, 2, 3, 7])
def test_windowed_residuals_pair_each_record_with_its_neighbours(every):
    g = Grid(2, 16)
    state = multi_mode_state(g, seed=3)
    # dt_max binds at 0.01: 7 steps, then two record steps and the one after,
    # so the last state completes a record's window
    for t_end in (0.07, 0.01 * (2 * every + 1)):
        cfg = TimeConfig(t_end=t_end, record_every=every)
        res = run(state, PARAMS, cfg)
        assert res.status == Status.COMPLETED
        # the trajectory again, step by step, as run takes it: (t, state, dt before)
        traj = [(0.0, state, None)]
        t, s = 0.0, state
        while t < cfg.t_end - 1e-12:
            dt = min(compute_dt(s, PARAMS, cfg), cfg.t_end - t)
            s, _ = step(s, PARAMS, dt)
            t += dt
            traj.append((t, s, dt))
        assert len(traj) == res.steps + 1
        index = {entry[0]: k for k, entry in enumerate(traj)}
        windowed = [r for r in res.records if not math.isnan(r.residuals["energy_balance"])]
        assert [index[r.t] for r in windowed] == list(range(every, res.steps, every))
        recorder = fn.Recorder(g, PARAMS, res.records[0].functionals.sigma)
        for rec in windowed:
            k = index[rec.t]
            # the record centres its window on t with the step sizes on either side
            before = (traj[k][2], recorder.evaluate(traj[k - 1][1]))
            after = (traj[k + 1][2], recorder.evaluate(traj[k + 1][1]))
            want = recorder.record(rec.t, traj[k][1], window=(before, after)).residuals
            for name, value in want.items():
                assert rec.residuals[name] == pytest.approx(value, rel=1e-14, abs=0.0), name
    assert res.steps == 2 * every + 1


def count_velocity_derivations(monkeypatch) -> dict:
    """Counts dynamics.primitive_velocity calls: one entry per ``step`` call
    under "steps", and the calls ``run`` makes outside ``step`` under "run"."""
    calls = {"run": 0, "steps": []}
    velocity, one_step = dynamics.primitive_velocity, stepping.step
    in_step = [False]

    def counted_velocity(*args):
        if in_step[0]:
            calls["steps"][-1] += 1
        else:
            calls["run"] += 1
        return velocity(*args)

    def counted_step(*args):
        calls["steps"].append(0)
        in_step[0] = True
        try:
            return one_step(*args)
        finally:
            in_step[0] = False

    monkeypatch.setattr(dynamics, "primitive_velocity", counted_velocity)
    monkeypatch.setattr(stepping, "step", counted_step)
    return calls


@pytest.mark.parametrize("every", [1, 3, 50])
def test_run_derives_each_states_velocities_once(monkeypatch, every):
    # an rk4 step derives u and v for its new state and for stages 2-4, and
    # its first stage reads those the last step left; the initial state's
    # guard, evaluation, dt and first stage share one derivation
    calls = count_velocity_derivations(monkeypatch)
    res = run(single_mode_state(Grid(1, 64)), PARAMS, TimeConfig(t_end=0.3, record_every=every))
    assert res.status == Status.COMPLETED and res.steps > 3 * every
    assert calls["steps"] == [8] * res.steps
    assert calls["run"] == 2


@pytest.mark.parametrize("every,in_run", [(1, 2), (50, 4)])
def test_a_stop_derives_only_an_unevaluated_states_velocities(monkeypatch, every, in_run):
    # the failing step's first stage drops the stopped state's Primitives:
    # its stop record derives them again unless a record needed the state
    calls = count_velocity_derivations(monkeypatch)
    cfg = TimeConfig(t_end=2.0, cfl_diffusive=1.0, dt_max=1.0, record_every=every)
    res = run(single_mode_state(Grid(1, 64)), PARAMS, cfg)
    assert res.status == Status.FLUID_VACUUM_BREACH and res.steps > 0
    assert calls["steps"][:-1] == [8] * res.steps
    assert calls["run"] == in_run


def _exact(rec) -> list[str]:
    """Every value of a record, as text that tells floats apart bit for bit."""
    av = rec.averages
    values = [rec.t, rec.mass_n, av.rho_c, *av.m_c, *av.j_c, *rec.mom_total]
    values += [*vars(rec.functionals).values(), *rec.residuals.values(), *rec.checks.values()]
    return [float(v).hex() for v in values] + list(rec.flags)


@pytest.mark.parametrize("case", ["breach", "recorded_breach", "steepening"])
def test_a_stop_record_equals_a_fresh_evaluation_of_the_final_state(case):
    g = Grid(1, 64)
    if case == "steepening":
        params = FluidParams(gamma=2.0, mu=1.0, lam=0.0, drag_on=False)
        state = generate_initial(InitSpec(kind="single_mode", amplitudes={"rho": 0.2, "u": 0.9}), g)
        cfg = TimeConfig(t_end=3.0, record_every=100)
        status = Status.GRADIENT_STEEPENING
    else:
        # every 50 steps no record needs the state the breach stops at
        params, state = PARAMS, single_mode_state(g)
        every = 1 if case == "recorded_breach" else 50
        cfg = TimeConfig(t_end=2.0, cfl_diffusive=1.0, dt_max=1.0, record_every=every)
        status = Status.FLUID_VACUUM_BREACH
    res = run(state, params, cfg)
    assert res.status == status and res.steps > 0
    # run leaves the caller's state without Primitives
    assert state.primitives is None
    recorder = fn.Recorder(g, params)
    recorder.evaluate(state)  # t = 0 fixes sigma, the alignment target and e0
    stop = ("stop:" + status.value,)
    want = recorder.record(res.t_final, res.final_state.copy(), flags=stop)
    assert _exact(res.records[-1]) == _exact(want)


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# a warm-up run, then a measured run, of one solver in a fresh process:
# the grid solver (2-D 64^2, a record every step) or the particle solver
# (100k particles)
_FAULT_PROBE = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from dragflow.dynamics import FluidParams
    from dragflow.grid import Grid
    from dragflow.initial import InitSpec, generate_initial
    from dragflow.kinetic import kinetic_run, monokinetic_ensemble
    from dragflow.stepping import TimeConfig, run

    params = FluidParams(gamma=2.0, mu=1.0, lam=0.0)
    if sys.argv[1] == "grid":
        g = Grid(2, 64)
        amps = {"rho": 0.05, "u": 0.05, "n": 0.05, "v": 0.05}
        spec = InitSpec(kind="multi_mode", amplitudes=amps, modes=3)
        state = generate_initial(spec, g, np.random.default_rng(0))
        cfg = TimeConfig(t_end=0.02, dt_max=1e-3)
        solve = lambda: run(state, params, cfg).steps
    else:
        g = Grid(1, 64)
        x = g.coords()[0]
        ens = monokinetic_ensemble(g, 1.0 + 0.05 * np.cos(x), 0.05 * np.sin(x), 100_000)
        n0, j0 = 0.05 * np.cos(x), 0.05 * np.sin(x)
        cfg = TimeConfig(t_end=5e-3)
        solve = lambda: kinetic_run(ens, n0, j0, g, params, cfg).steps
    solve()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps = solve()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
    """
)


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
@pytest.mark.parametrize("solver", ["grid", "kinetic"])
def test_solver_loops_do_not_refault_heap_pages(solver):
    # with glibc's dynamic thresholds every rhs call and particle step gave
    # back about a megabyte of heap and faulted it in again: about 1,300
    # minor faults per 2-D 64^2 step and 1,400 per particle step
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, solver],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert float(out.stdout.splitlines()[-1]) < 50
