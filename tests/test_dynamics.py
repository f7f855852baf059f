"""Constitutive laws and semi-discrete right-hand side.

The rhs is cross-checked against an independent second-order
finite-difference discretization of the same continuum operators.
"""
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import dragflow.dynamics as dyn
from dragflow.dynamics import (
    FluidParams,
    NonPositiveDensity,
    State,
    grad_velocity_max,
    pressure_minus_one,
    primitive_velocity,
    rhs,
    sound_speed_max,
)
from dragflow.functionals import Recorder
from dragflow.grid import Grid, random_band_limited
from dragflow.initial import InitSpec, generate_initial
from dragflow.kinetic import ParticleEnsemble, kinetic_run
from dragflow.stepping import TimeConfig, _rk_advance, cfl_dt, compute_dt, step


def make_state(grid, rho, u, n, v):
    return State(grid, rho, rho[None] * u, n, (1.0 + n)[None] * v)


def rates_of(state, params):
    """rhs's rate stack, split into d_rho, d_m, d_n and d_j."""
    r = State.of(state.grid, rhs(state, params))
    return SimpleNamespace(d_rho=r.rho, d_m=r.m, d_n=r.n, d_j=r.j)


def single_mode_state(grid, amp=0.05, phase_v=0.0):
    spec = InitSpec(
        kind="single_mode",
        amplitudes={"rho": amp, "u": amp, "n": amp, "v": amp},
        phases={"v": phase_v},
    )
    return generate_initial(spec, grid)


def test_params_validation():
    with pytest.raises(ValueError):
        FluidParams(gamma=1.0, mu=1.0)
    with pytest.raises(ValueError):
        FluidParams(gamma=2.0, mu=0.0)
    with pytest.raises(ValueError):
        FluidParams(gamma=2.0, mu=1.0, lam=-2.0)
    FluidParams(gamma=2.0, mu=1.0, lam=-1.5)  # lam + 2 mu > 0


def test_pressure_values():
    g = Grid(1, 32)
    assert np.allclose(1.0 + pressure_minus_one(g.zeros(), 2.0), 1.0)
    assert np.allclose(1.0 + pressure_minus_one(np.full(g.shape, 0.1), 2.0), 1.21)
    # pointwise power oracle at gamma = 1.4
    x = g.coords()[0]
    n = 0.05 * np.cos(x)
    assert np.max(np.abs(1.0 + pressure_minus_one(n, 1.4) - (1.0 + n) ** 1.4)) < 1e-14


def test_pressure_vacuum_error():
    # the pressure is undefined at 1+n = 0, so the rates are too
    g = Grid(1, 32)
    params = FluidParams(gamma=2.0, mu=1.0)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), g.zeros(), g.zeros_vector())
    state.n[:] = -1.0
    with pytest.raises(NonPositiveDensity):
        rhs(state, params)


def test_pressure_deviation_matches_direct():
    n = np.linspace(-0.4, 0.4, 101)
    for gamma in (1.4, 2.0, 3.0):
        direct = (1.0 + n) ** gamma - 1.0 - gamma * n
        assert np.max(np.abs(dyn.pressure_deviation(n, gamma) - direct)) < 1e-14


def test_primitive_velocity():
    g = Grid(1, 32)
    rho = np.ones(g.shape)
    m = np.full((1,) + g.shape, 2.0)
    u, flagged = primitive_velocity(rho, m)
    assert np.allclose(u, 2.0) and not flagged

    u0, flagged0 = primitive_velocity(np.zeros(g.shape), np.zeros((1,) + g.shape))
    assert np.allclose(u0, 0.0) and flagged0

    x = g.coords()[0]
    rho = 1.0 + 0.1 * np.cos(x)
    m = np.sin(x)[None]
    u, flagged = primitive_velocity(rho, m)
    assert np.max(np.abs(u[0] - np.sin(x) / rho)) < 1e-14 and not flagged


def test_rhs_uniform_equilibrium():
    g = Grid(1, 64)
    params = FluidParams(gamma=2.0, mu=1.0)
    c = 0.3
    state = make_state(
        g, np.ones(g.shape), np.full((1,) + g.shape, c), g.zeros(), np.full((1,) + g.shape, c)
    )
    rates = rates_of(state, params)
    for arr in (rates.d_rho, rates.d_m, rates.d_n, rates.d_j):
        assert np.max(np.abs(arr)) < 1e-13


def test_rhs_pure_drag():
    g = Grid(1, 64)
    params = FluidParams(gamma=2.0, mu=1.0)
    a, b = 0.4, -0.1
    state = make_state(
        g, np.ones(g.shape), np.full((1,) + g.shape, a), g.zeros(), np.full((1,) + g.shape, b)
    )
    rates = rates_of(state, params)
    assert np.max(np.abs(rates.d_rho)) < 1e-13
    assert np.max(np.abs(rates.d_n)) < 1e-13
    assert np.max(np.abs(rates.d_m + (a - b))) < 1e-12
    assert np.max(np.abs(rates.d_j - (a - b))) < 1e-12


def _fd_rhs(state, params, floor=1e-8):
    """Second-order centered finite-difference evaluation of the same
    continuum operators (independent oracle; no dealiasing)."""
    g = state.grid
    dx = g.dx

    def ddx_fd(f, axis):
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * dx)

    def lap_fd(f):
        out = np.zeros_like(f)
        for a in range(g.dim):
            out += (np.roll(f, -1, axis=a) - 2 * f + np.roll(f, 1, axis=a)) / dx**2
        return out

    u = state.m / np.maximum(state.rho, floor)[None]
    v = state.j / (1.0 + state.n)[None]
    d_rho = -sum(ddx_fd(state.m[a], a) for a in range(g.dim))
    d_n = -sum(ddx_fd(state.j[a], a) for a in range(g.dim))
    d_m = np.zeros_like(state.m)
    d_j = np.zeros_like(state.j)
    for a in range(g.dim):
        d_m[a] = -sum(ddx_fd(state.m[a] * u[b], b) for b in range(g.dim))
        d_j[a] = -sum(ddx_fd(state.j[a] * v[b], b) for b in range(g.dim))
    p = (1.0 + state.n) ** params.gamma
    div_v = sum(ddx_fd(v[a], a) for a in range(g.dim))
    for a in range(g.dim):
        d_j[a] -= ddx_fd(p, a)
        d_j[a] += params.mu * lap_fd(v[a]) + (params.mu + params.lam) * ddx_fd(div_v, a)
    drag = state.rho * (u - v)
    d_m -= drag
    d_j += drag
    return d_rho, d_m, d_n, d_j


@pytest.mark.parametrize("dim", [1, 2])
def test_rhs_matches_finite_differences_at_second_order(dim):
    params = FluidParams(gamma=1.4, mu=0.7, lam=0.2)
    errs = []
    for n in (24, 48):
        g = Grid(dim, n)
        state = single_mode_state(g, amp=0.1)
        spectral = rates_of(state, params)
        fd = _fd_rhs(state, params)
        err = max(
            np.max(np.abs(spectral.d_rho - fd[0])),
            np.max(np.abs(spectral.d_m - fd[1])),
            np.max(np.abs(spectral.d_n - fd[2])),
            np.max(np.abs(spectral.d_j - fd[3])),
        )
        errs.append(err)
    # difference is dominated by the FD truncation error, O(dx^2)
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7


def random_state(grid, rng, amp=0.2):
    """Random band-limited admissible state: rho > 0, 1+n > 0, mean(n) = 0."""
    def vec():
        return amp * np.stack([random_band_limited(grid, rng) for _ in range(grid.dim)])

    rho = 1.0 + amp * random_band_limited(grid, rng)
    u = vec()
    n = amp * random_band_limited(grid, rng)
    v = vec()
    return make_state(grid, rho, u, n, v)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_semi_discrete_conservation_on_random_states(dim, n):
    g = Grid(dim, n)
    rng = np.random.default_rng(2)
    for _ in range(10):
        state = random_state(g, rng)
        for drag_on in (True, False):
            params = FluidParams(gamma=1.4, mu=0.5, lam=-0.3, drag_on=drag_on)
            rates = rates_of(state, params)
            scale = max(np.max(np.abs(rates.d_m)), np.max(np.abs(rates.d_j)), 1e-30)
            assert abs(np.mean(rates.d_rho)) < 1e-10 * scale
            assert abs(np.mean(rates.d_n)) < 1e-10 * scale
            momentum = np.mean(rates.d_m + rates.d_j, axis=tuple(range(1, dim + 1)))
            assert np.max(np.abs(momentum)) < 1e-10 * scale


def _operator_rhs(state, params):
    """The rates built term by term from the public Grid operators."""
    g = state.grid
    u, _ = primitive_velocity(state.rho, state.m)
    v, _ = primitive_velocity(1.0 + state.n, state.j)
    d_rho = -g.divergence(state.m)
    d_n = -g.divergence(state.j)
    grad_p = g.gradient(g.dealias(pressure_minus_one(state.n, params.gamma)))
    grad_div_v = g.gradient(g.divergence(v))
    d_m = np.empty_like(state.m)
    d_j = np.empty_like(state.j)
    for a in range(g.dim):
        d_m[a] = -g.divergence(g.dealias(state.m[a] * u))
        d_j[a] = (
            -g.divergence(g.dealias(state.j[a] * v))
            - grad_p[a]
            + params.mu * g.laplacian(v[a])
            + (params.mu + params.lam) * grad_div_v[a]
        )
    if params.drag_on:
        drag = g.dealias(state.rho * (u - v))
        d_m -= drag
        d_j += drag
    return d_rho, d_m, d_n, d_j


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("drag_on", [True, False])
def test_rhs_matches_term_by_term_operators(dim, n, drag_on):
    # catches a wrong flux entry in the batched, symmetric-pair assembly
    g = Grid(dim, n)
    params = FluidParams(gamma=1.4, mu=0.5, lam=-0.3, drag_on=drag_on)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        state = random_state(g, rng)
        rates = rates_of(state, params)
        got = (rates.d_rho, rates.d_m, rates.d_n, rates.d_j)
        for name, a, b in zip(("d_rho", "d_m", "d_n", "d_j"), got, _operator_rhs(state, params)):
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b)), name


def one_kinetic_step(grid, state, params):
    """One step of the particle solver on the fluid of a 1-D ``state``,
    with a particle on every fourth node."""
    x = grid.coords()[0][::4].copy()
    ens = ParticleEnsemble(x, 0.1 * np.cos(x), np.full(x.size, 0.05))
    return kinetic_run(ens, state.n, state.j, grid, params, TimeConfig(t_end=1e-4))


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8), (3, 32)])
def test_rhs_makes_one_transform_call_each_way(dim, n):
    g = Grid(dim, n)
    calls, bands, sizes = [], [], []

    def counted(name, transform):
        def wrapper(f, *args, **kwargs):
            calls.append((name, f.shape[0]))
            if name == "forward":
                bands.append(args)
                sizes.append(f.nbytes)
            return transform(f, *args, **kwargs)
        return wrapper

    state = random_state(g, np.random.default_rng(0))
    g._fft = counted("forward", g._fft)
    g._ifft = counted("inverse", g._ifft)
    pairs = dim * (dim + 1) // 2
    rhs(state, FluidParams(gamma=1.4, mu=0.5, lam=-0.3))
    # m, j, v, p - 1, the pairs m_a u_b and j_a v_b, rho*(u - v); then the
    # 2 + 2*dim rates.  The forward call is one block of rows of at most
    # 1 MiB: the whole stack up to 16^3, four rows at 32^3
    rows = 4 * dim + 1 + 2 * pairs
    per = 4 if (dim, n) == (3, 32) else rows
    starts = range(0, rows, per)
    assert calls == [("forward", min(per, rows - lo)) for lo in starts] + [("inverse", 2 + 2 * dim)]
    assert max(sizes) <= 1 << 20
    # j, v and m are read in full, the rows after them only through the 2/3
    # rule: the band index is shifted into each block, and at 32^3 the block
    # of rows 8-11 holds both kinds
    assert bands == [(max(3 * dim - lo, 0),) for lo in starts]
    if (dim, n) == (3, 32):
        assert bands == [(9,), (5,), (1,), (0,), (0,), (0,), (0,)]

    if dim == 1:  # the particle solver is 1-D only
        # one RK4 step of it: each stage's fluid rates are one rhs call
        calls.clear()
        bands.clear()
        result = one_kinetic_step(g, state, FluidParams(gamma=1.4, mu=0.5))
        assert result.steps == 1
        assert calls == [("forward", 7), ("inverse", 4)] * 4
        assert bands == [(3,)] * 4


def test_rates_and_evaluation_never_hold_the_whole_physical_stack():
    # the physical rows of the rate stack are made and transformed a block
    # at a time: beside the spectrum (25 rows in 3-D), neither rhs nor an
    # evaluation holds the whole physical stack.  At 32^3 the peaks beyond
    # the spectrum read 0.49 and 0.46 of the stack's bytes, against 1.00
    # and 1.08 when the stack was made whole
    g = Grid(3, 32)
    params = FluidParams(gamma=1.4, mu=0.5, lam=-0.3)
    state = random_state(g, np.random.default_rng(5))
    recorder = Recorder(g, params)
    # the grid's and the params' tables, and the recorder's sigma, built once
    rhs(state.copy(), params)
    recorder.evaluate(state.copy())
    rows = 25
    spectrum = rows * math.prod(g._half_shape) * 16
    stack = rows * math.prod(g.shape) * 8
    for name in ("rhs", "evaluate"):
        # the state as step leaves it: with its primitives and its gradient monitor
        s = state.copy()
        s.primitives = dyn.primitives(s)
        grad = grad_velocity_max(s)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if name == "rhs":
                rhs(s, params)
            else:
                recorder.evaluate(s, grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - spectrum < 0.6 * stack, (name, (peak - spectrum) / stack)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
def test_the_solver_and_diagnostics_call_no_numpy_fft_wrapper(dim, n, monkeypatch):
    # Grid calls numpy's pocketfft kernels directly, without the wrapper's
    # cost per call; a call to the public functions must not creep back in
    g = Grid(dim, n)
    params = FluidParams(gamma=1.4, mu=0.5, lam=-0.3)
    state = random_state(g, np.random.default_rng(dim))
    recorder = Recorder(g, params)

    def wrapper(*args, **kwargs):
        raise AssertionError("numpy.fft wrapper called")

    for name in ("rfft", "irfft", "fft", "ifft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, wrapper)
    rhs(state.copy(), params)
    if dim == 1:  # the particle solver is 1-D only
        assert one_kinetic_step(g, state, params).steps == 1
    g.gradient(state.rho)
    recorder.evaluate(state)
    new, _ = step(state, params, 1e-4)
    assert np.all(np.isfinite(new.y))


def test_drag_antisymmetry():
    # one array is applied with both signs; reconstructing it by
    # differencing the rates only adds one rounding per entry
    g = Grid(1, 64)
    params = FluidParams(gamma=2.0, mu=1.0)
    state = single_mode_state(g, amp=0.08, phase_v=0.9)
    with_drag = rates_of(state, params)
    without = rates_of(state, FluidParams(gamma=2.0, mu=1.0, drag_on=False))
    drag_m = with_drag.d_m - without.d_m
    drag_j = with_drag.d_j - without.d_j
    scale = np.max(np.abs(without.d_j))
    assert np.max(np.abs(drag_m + drag_j)) < 1e-15 * scale


def test_drag_off_decouples_subsystems():
    g = Grid(1, 64)
    params = FluidParams(gamma=2.0, mu=1.0, drag_on=False)
    state = single_mode_state(g, amp=0.05)
    base = rates_of(state, params)
    perturbed = state.copy()
    perturbed.rho = perturbed.rho + 0.1 * np.cos(3 * g.coords()[0])
    perturbed.m = perturbed.m * 1.3
    shifted = rates_of(perturbed, params)
    assert np.array_equal(base.d_n, shifted.d_n)
    assert np.array_equal(base.d_j, shifted.d_j)


def test_energy_balance_chain_rule():
    # d(E)/dt assembled from the rates equals -2 D up to the dealiasing floor
    from dragflow.functionals import Recorder

    g = Grid(1, 64)
    params = FluidParams(gamma=2.0, mu=1.0)
    state = single_mode_state(g, amp=0.05, phase_v=0.4)
    rates = rates_of(state, params)
    rho, m, n, j = state.rho, state.m, state.n, state.j
    dE = np.mean(
        2 * np.sum(m * rates.d_m, axis=0) / rho - np.sum(m * m, axis=0) / rho**2 * rates.d_rho
    )
    dE += np.mean(
        2 * np.sum(j * rates.d_j, axis=0) / (1 + n)
        - np.sum(j * j, axis=0) / (1 + n) ** 2 * rates.d_n
    )
    dE += (
        2.0
        * params.gamma
        / (params.gamma - 1.0)
        * np.mean((1 + n) ** (params.gamma - 1.0) * rates.d_n)
    )
    d_val = Recorder(g, params).evaluate(state).functionals.D
    assert abs(dE + 2.0 * d_val) < 1e-12 * d_val


def test_sound_speed_max():
    g = Grid(1, 32)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), g.zeros(), g.zeros_vector())
    assert sound_speed_max(state.n, FluidParams(gamma=2.0, mu=1.0)) == pytest.approx(np.sqrt(2))
    assert sound_speed_max(state.n, FluidParams(gamma=1.4, mu=1.0)) == pytest.approx(np.sqrt(1.4))
    x = g.coords()[0]
    state_n = make_state(g, np.ones(g.shape), g.zeros_vector(), 0.1 * np.cos(x), g.zeros_vector())
    state_n.n -= np.mean(state_n.n)
    assert sound_speed_max(state_n.n, FluidParams(gamma=2.0, mu=1.0)) == pytest.approx(
        np.sqrt(2.0 * np.max(1 + state_n.n)), rel=1e-12
    )


# -- the seeded-sum oracle --------------------------------------------------
# The rates, step, dt and steepening guard assembled as Python's ``sum``
# builds them: each divergence seeded with 0 and then negated, the pressure
# and the rate rows made as new arrays and copied, the velocity norms and
# the sound speed taken on arrays.  The solver accumulates in place from
# pre-negated operators instead, with every product and sum kept in the same
# association, so the two must agree bit for bit.


def _seeded_velocities(y, d):
    return y[2 + d :] / np.maximum(y[1 + d], dyn.VACUUM_FLOOR)[None], y[1 : 1 + d] / (1.0 + y[0])[None]


def _seeded_rhs(state, params):
    g = state.grid
    d, y = g.dim, state.y
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    u, v = _seeded_velocities(y, d)
    n, j, rho, m = y[0], y[1 : 1 + d], y[1 + d], y[2 + d :]
    phys = [*j, *v, np.expm1(params.gamma * np.log1p(n))]
    phys += [j[a] * v[b] for a, b in pairs] + [*m] + [m[a] * u[b] for a, b in pairs]
    if params.drag_on:
        phys += [*(rho * (u - v))]
    hat = g._fft(np.array(phys))
    jhat, vhat, p1hat = hat[:d], hat[d : 2 * d], hat[2 * d]
    at = 2 * d + 1 + len(pairs)
    jv_hat, mhat = hat[2 * d + 1 : at], hat[at : at + d]
    mu_hat, drag_hat = hat[at + d : at + d + len(pairs)], hat[at + d + len(pairs) :]

    def flux_divergence(flux_hat, a):
        return -sum(g._ik_dealias[b] * flux_hat[pairs.index((min(a, b), max(a, b)))] for b in range(d))

    div_v_hat = sum(g._ik[a] * vhat[a] for a in range(d))
    d_j = []
    for a in range(d):
        acc = (-g._ik_dealias[a]) * p1hat
        acc += (params.mu * (-g._k2)) * vhat[a]
        acc += ((params.mu + params.lam) * g._ik[a]) * div_v_hat
        acc += flux_divergence(jv_hat, a)
        d_j.append(acc)
    d_m = [flux_divergence(mu_hat, a) for a in range(d)]
    out = np.array(
        [-sum(g._ik[a] * jhat[a] for a in range(d)), *d_j]
        + [-sum(g._ik[a] * mhat[a] for a in range(d)), *d_m]
    )
    if params.drag_on:
        drag = g._dealias_keep * drag_hat
        out[2 + d :] -= drag
        out[1 : 1 + d] += drag
    return g._ifft(out)


def _seeded_step(state, params, dt):
    g = state.grid
    return _rk_advance(state.y, lambda y_s: _seeded_rhs(State.of(g, y_s), params), dt)


def _seeded_max_speed(state, params):
    u, v = _seeded_velocities(state.y, state.grid.dim)
    umax = float(np.sqrt((u * u).sum(axis=0)).max())
    vmax = float(np.sqrt((v * v).sum(axis=0)).max())
    n1_max = 1.0 + float(state.y[0].max())
    with np.errstate(over="ignore"):
        sound = float(np.sqrt(params.gamma * np.power(n1_max, params.gamma - 1.0)))
    return max(umax, vmax) + sound


def _seeded_grad_velocity_max(state):
    g = state.grid
    u, _ = _seeded_velocities(state.y, g.dim)
    fhat = g._fft(u)
    grad = g._ifft(np.stack([fhat * ik for ik in g._ik], axis=-g.dim - 1))
    return float(np.sqrt(np.max(np.sum(grad * grad, axis=(0, 1)))))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8), (3, 32)])
@pytest.mark.parametrize("drag_on", [True, False])
@pytest.mark.parametrize("lam", [0.0, -0.3])
def test_in_place_assembly_equals_the_seeded_sums_bit_for_bit(dim, n, drag_on, lam):
    # at 32^3 rhs makes its stack in blocks of four rows, and the block of
    # rows 8-11 straddles the first band row, 9; the oracle makes it whole
    g = Grid(dim, n)
    params = FluidParams(gamma=1.4, mu=0.5, lam=lam, drag_on=drag_on)
    cfg = TimeConfig(t_end=1.0)
    rng = np.random.default_rng(10 * dim + n)
    for _ in range(2):
        state = random_state(g, rng)
        assert _bits(rhs(state.copy(), params)) == _bits(_seeded_rhs(state, params))
        # dt is at the diffusive limit here, so the speed is compared on its own
        assert _bits(dyn.max_speed(state.copy(), params)) == _bits(_seeded_max_speed(state, params))
        assert _bits(compute_dt(state.copy(), params, cfg)) == _bits(
            cfl_dt(_seeded_max_speed(state, params), g.dx, params, cfg)
        )
        assert _bits(grad_velocity_max(state.copy())) == _bits(_seeded_grad_velocity_max(state))
        dt = 0.5 * compute_dt(state, params, cfg)
        new, info = step(state, params, dt)
        want, reproj = _seeded_step(state, params, dt)
        assert _bits(new.y) == _bits(want)
        assert _bits(info.reprojection) == _bits(reproj)
        # the stepped state carries its primitives into dt and the guard
        want_state = State.of(g, want)
        assert _bits(dyn.max_speed(new, params)) == _bits(_seeded_max_speed(want_state, params))
        assert _bits(compute_dt(new, params, cfg)) == _bits(
            cfl_dt(_seeded_max_speed(want_state, params), g.dx, params, cfg)
        )
        assert _bits(grad_velocity_max(new)) == _bits(_seeded_grad_velocity_max(want_state))


def test_operator_tables_are_shared_by_equal_params_and_right_for_each():
    g = Grid(2, 16)
    first = FluidParams(gamma=1.4, mu=0.5, lam=-0.3)
    tables = dyn._operators(g, first)
    assert dyn._operators(g, first) is tables
    # equal but distinct objects find the same tables and add no entry
    size = len(g._derived)
    for _ in range(3):
        assert dyn._operators(g, FluidParams(gamma=1.4, mu=0.5, lam=-0.3)) is tables
    assert len(g._derived) == size
    state = random_state(g, np.random.default_rng(3))
    # an equal but distinct object, then objects that nothing else keeps:
    # each one dropped could hand its id to the next
    params = [FluidParams(gamma=1.4, mu=0.5, lam=-0.3)]
    params += [FluidParams(gamma=1.4, mu=0.1 * k, lam=-0.01 * k) for k in range(1, 6)]
    while params:
        p = params.pop(0)
        ops = dyn._operators(g, p)
        assert _bits(ops.viscous) == _bits(p.mu * (-g._k2))
        for got, ik in zip(ops.grad_div, g._ik):
            assert got.tobytes() == ((p.mu + p.lam) * ik).tobytes()
        assert _bits(rhs(state.copy(), p)) == _bits(_seeded_rhs(state, p))
        del ops, p


def test_sound_speed_equals_the_numpy_power_bit_for_bit():
    n1_maxes = np.concatenate((np.linspace(0.01, 3.0, 61), [0.5, 1.0, 1.0 + 1e-12, 2.0, 1e3]))
    for gamma in (1.0 + 1e-9, 1.4, 5.0 / 3.0, 2.0, 3.7, 50.0, 700.0, 1e6):
        params = FluidParams(gamma=gamma, mu=1.0)
        for n1_max in n1_maxes.tolist():
            with np.errstate(over="ignore", under="ignore"):
                want = np.sqrt(gamma * np.power(n1_max, gamma - 1.0))
            got = dyn._sound_speed(0.5, n1_max, params)
            assert _bits(got) == _bits(want), (gamma, n1_max)


def test_sound_speed_overflow_reads_inf_without_a_warning():
    # (1.05)**(1e6 - 1) overflows a double; the run stops on the inf, and
    # nothing is printed along the way
    params = FluidParams(gamma=1e6, mu=1.0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert dyn._sound_speed(1.0, 1.05, params) == math.inf
        assert sound_speed_max(np.array([-0.05, 0.05]), params) == math.inf


def test_state_validation():
    g = Grid(1, 32)
    state = make_state(g, np.ones(g.shape), g.zeros_vector(), g.zeros(), g.zeros_vector())
    state.validate()
    bad = state.copy()
    bad.rho[0] = -0.1
    with pytest.raises(ValueError):
        bad.validate()
    bad2 = state.copy()
    bad2.n = bad2.n + 0.5  # nonzero mean
    with pytest.raises(ValueError):
        bad2.validate()
