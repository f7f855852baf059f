"""Functionals, exact identities, inequality checks, and decay fitting.

Every functional here integrates against the normalized measure dx/(2*pi)^dim
(i.e. grid means), so the total fluid mass is 1, the averaged quantities are
velocity-scaled, and the constants appearing in the identity and inequality
checks are exactly the ones valid on the unit-mass torus.  The function-space
norms in :mod:`dragflow.grid` keep the raw measure; only the diagnostics are
normalized.

Energy-type quantities are evaluated in deviation form (pressure entering as
(1+n)^gamma - 1 - gamma*n via expm1/log1p) so that balance residuals remain
measurable long after the fluctuations have decayed below the round-off of
the raw energy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    VACUUM_FLOOR,
    FluidParams,
    NonPositiveDensity,
    State,
    gradient_norm_max,
    pressure_deviation,
    pressure_minus_one,
    primitive_velocity,
)
from .grid import Grid, empirical_bogovskii_constant


class DiagnosticsError(ValueError):
    pass


class ZeroMass(DiagnosticsError):
    pass


class NonPositiveValues(DiagnosticsError):
    pass


class HypothesisViolated(DiagnosticsError):
    pass


# ---------------------------------------------------------------------------
# normalized quadrature helpers
# ---------------------------------------------------------------------------


def _mean(f: np.ndarray) -> float:
    return float(np.mean(f))


def _mean_vec(v: np.ndarray) -> np.ndarray:
    return v.reshape(v.shape[0], -1).mean(axis=1)


def _dot_sq(v: np.ndarray) -> np.ndarray:
    """Pointwise |v|^2 for a stacked vector field."""
    return np.sum(v * v, axis=0)


# ---------------------------------------------------------------------------
# averaged quantities and the derived fields of one state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Averages:
    rho_c: float
    m_c: np.ndarray  # momentum-weighted mean particle velocity
    j_c: np.ndarray  # mean fluid momentum (unit-mass measure)


def averages(state: State) -> Averages:
    rho_c = _mean(state.rho)
    if rho_c <= 0.0:
        raise ZeroMass("total particle mass must be positive")
    m_c = _mean_vec(state.m) / rho_c
    j_c = _mean_vec(state.j)
    return Averages(rho_c, m_c, j_c)


class _Fields:
    """Derived fields of one state, each built once and shared by every functional.

    The energy part (u, v, the averages, du, dv, 1+n, the pressure
    deviation and, for sigma > 0, ``lift = bogovskii(n)``) gives the energy
    scalars; a neighbour of a residual window contributes only those, as
    ``energies``.  The centre of a record also needs grad v, div v, u - v
    and the plain dissipation terms I1-I3 (``gradients=True``).
    """

    def __init__(self, state: State, params: FluidParams, sigma: float = 0.0,
                 gradients: bool = True, floor: float = VACUUM_FLOOR):
        if sigma < 0.0:
            raise DiagnosticsError("sigma must be nonnegative")
        g = state.grid
        self.state, self.params, self.sigma = state, params, sigma
        self.n1 = 1.0 + state.n
        self.min_n1 = float(np.min(self.n1))
        if self.min_n1 <= 0.0:
            raise NonPositiveDensity("diagnostics: min(1+n) <= 0")
        self.av = av = averages(state)
        self.u, _ = primitive_velocity(state.rho, state.m, floor)
        self.v, _ = primitive_velocity(self.n1, state.j, floor)
        bshape = (-1,) + (1,) * g.dim
        self.du = self.u - av.m_c.reshape(bshape)
        self.dv = self.v - av.j_c.reshape(bshape)
        self.pdev = pressure_deviation(state.n, params.gamma)
        self.lift = g.bogovskii(state.n) if sigma > 0.0 else None

        self.fluct_p = _mean(state.rho * _dot_sq(self.du))
        self.fluct_f = _mean(self.n1 * _dot_sq(self.dv))
        self.gap_sq = float(np.sum((av.m_c - av.j_c) ** 2))
        self.L_p = self.fluct_p + self.fluct_f + self.gap_sq
        self.L = self.L_p + _mean(state.n * state.n)
        # mean of f(1+n; 1), via the cancellation-free deviation identity
        self.potential = _mean(self.pdev) / (params.gamma - 1.0)
        ke_p = _mean(_dot_sq(state.m) / np.maximum(state.rho, floor))
        self.E_dev = ke_p + _mean(_dot_sq(state.j) / self.n1) + 2.0 * self.potential
        self.E = self.E_dev + 2.0 * (1.0 + params.gamma * _mean(state.n)) / (params.gamma - 1.0)
        self.E_script = self.fluct_p + self.fluct_f + 2.0 * self.potential + (
            av.rho_c / (1.0 + av.rho_c) * self.gap_sq
        )
        self.E_sigma = self.E_script
        if self.lift is not None:
            cross = _mean(self.n1 * np.sum(self.dv * self.lift, axis=0))
            self.E_sigma = self.E_script - 2.0 * sigma * cross
        # what the state contributes to the centred differences, in RESIDUALS order
        self.energies = (self.E_dev, self.E_sigma, self.fluct_p,
                         self.fluct_f + 2.0 * self.potential, self.gap_sq)
        if not gradients:
            return

        self.grad_v = g.gradient(self.v)  # grad_v[a, b] = d_b v_a
        # div v = sum of d_a v_a, the trace of grad v
        self.div_v = self.grad_v[0, 0].copy()
        gradsq = _mean(_dot_sq(self.grad_v[0]))
        for a in range(1, g.dim):
            self.div_v += self.grad_v[a, a]
            gradsq += _mean(_dot_sq(self.grad_v[a]))
        self.diff = self.u - self.v
        self.i1 = params.mu * gradsq
        self.i2 = (params.mu + params.lam) * _mean(self.div_v * self.div_v)
        self.i3 = _mean(state.rho * _dot_sq(self.diff))
        self.D = self.i1 + self.i2 + self.i3
        self.jc_prime = _mean_vec(state.rho * self.diff)


# ---------------------------------------------------------------------------
# basic functionals
# ---------------------------------------------------------------------------


def energy_deviation(state: State, params: FluidParams, floor: float = 1e-8) -> float:
    """Total energy minus its equilibrium constant 2/(gamma-1).

    Deviation form of the kinetic + internal energy: exact up to the
    conserved mean(n) term, and conditioned on the size of the
    fluctuations rather than on the O(1) equilibrium energy, which keeps
    the balance residual measurable at late times.
    """
    return _Fields(state, params, gradients=False, floor=floor).E_dev


def total_energy(state: State, params: FluidParams) -> float:
    """E = mean(rho|u|^2 + (1+n)|v|^2) + 2*mean((1+n)^gamma)/(gamma-1).

    The pressure potential carries the coefficient 2/(gamma-1): that is the
    combination whose halved time derivative balances the dissipation
    exactly (d(E)/dt / 2 + D = 0), matches the interacting energy-variation
    term for term, and is monotone along solutions.
    """
    return _Fields(state, params, gradients=False).E


def dissipation(state: State, params: FluidParams) -> float:
    """mu*mean|grad v|^2 + (mu+lam)*mean|div v|^2 + mean rho|u-v|^2."""
    return _Fields(state, params).D


def lyapunov(state: State, params: FluidParams) -> tuple[float, float]:
    """Momentum/mass fluctuation functional; returns (L, L_p)."""
    f = _Fields(state, params, gradients=False)
    return f.L, f.L_p


# ---------------------------------------------------------------------------
# pressure potential f(r; r0) and its quadratic bounds
# ---------------------------------------------------------------------------


def pressure_potential(r, r0: float, gamma: float):
    """f(r; r0) = r * integral_{r0}^{r} (h^gamma - r0^gamma) / h^2 dh.

    Closed form for gamma > 1; f(r0; r0) = 0 and f >= 0.  Vectorized in r.
    """
    if not r0 > 0.0:
        raise DiagnosticsError("r0 must be positive")
    if not gamma > 1.0:
        raise DiagnosticsError("gamma must exceed 1")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DiagnosticsError("r must be nonnegative")
    out = (r**gamma - r * r0 ** (gamma - 1.0)) / (gamma - 1.0) + r0 ** (
        gamma - 1.0
    ) * (r0 - r)
    return out if out.ndim else float(out)


def pressure_potential_bounds(r0: float, r_bar: float, gamma: float) -> tuple[float, float]:
    """(min, max) of f(r; r0)/(r - r0)^2 over [0, r_bar], in closed form.

    f'' = gamma * r^(gamma-2) is monotone, so the ratio is monotone in r and
    its extremes are r0^(gamma-2) at r = 0 and, at r = r_bar, f in the
    cancellation-free pressure-deviation form.  Both are strictly positive
    for gamma > 1, and equal 1 when gamma = 2, r0 = 1 (f(r; 1) = (r-1)^2).
    """
    if not r0 > 0.0:
        raise DiagnosticsError("r0 must be positive")
    if not gamma > 1.0:
        raise DiagnosticsError("gamma must exceed 1")
    if not r_bar > r0:
        raise DiagnosticsError("r_bar must exceed r0")
    x = (r_bar - r0) / r0
    at_zero = r0 ** (gamma - 2.0)
    at_r_bar = at_zero * float(pressure_deviation(x, gamma)) / ((gamma - 1.0) * x * x)
    return min(at_zero, at_r_bar), max(at_zero, at_r_bar)


def _bounds_above(n_bar: float, gamma: float) -> tuple[float, float]:
    """Pressure-potential bounds on [0, r_bar], r_bar just above max(1+n)."""
    r_bar = max(n_bar, 1.0 + 1e-6) * (1.0 + 1e-9)
    return pressure_potential_bounds(1.0, r_bar, gamma)


# ---------------------------------------------------------------------------
# interacting energy-variation and its dissipation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractingEnergy:
    E_script: float
    E_sigma: float
    D_sigma: float
    sigma: float
    terms: dict


def _sigma_terms(f: _Fields) -> tuple[float, ...]:
    """I4-I10, the dissipation terms of the sigma correction."""
    s, p, sigma, lift = f.state, f.params, f.sigma, f.lift
    g = s.grid
    hess = g.gradient(lift)  # d_b d_a phi
    flux = g.dealias(s.j[:, None] * f.v[None, :])
    i4 = sigma * _mean(np.sum(flux * hess, axis=(0, 1)))
    i5 = sigma * _mean(s.n * g.dealias(pressure_minus_one(s.n, p.gamma)))
    # hess is symmetric, so this pairs d_b v_a with d_b d_a phi
    i6 = -sigma * p.mu * _mean(np.sum(f.grad_v * hess, axis=(0, 1)))
    i7 = -sigma * (p.mu + p.lam) * _mean(f.div_v * s.n)
    drag = g.dealias(s.rho * f.diff)
    i8 = sigma * _mean(np.sum(drag * lift, axis=0))
    div_j = g.divergence(s.j)
    lift_divj = g.bogovskii(div_j)
    i9 = -sigma * _mean(f.n1 * np.sum(f.dv * lift_divj, axis=0))
    jc_dot_lift = np.tensordot(f.av.j_c, lift, axes=(0, 0))
    i10 = -sigma * (
        -_mean(div_j * jc_dot_lift)
        + float(np.dot(f.jc_prime, _mean_vec(f.n1 * lift)))
    )
    return i4, i5, i6, i7, i8, i9, i10


def _interacting(f: _Fields) -> InteractingEnergy:
    terms = {"I1": f.i1, "I2": f.i2, "I3": f.i3}
    d_sigma = f.D
    extra = _sigma_terms(f) if f.lift is not None else (0.0,) * 7
    for k, val in zip(range(4, 11), extra):
        terms[f"I{k}"] = val
        d_sigma += val
    return InteractingEnergy(f.E_script, f.E_sigma, d_sigma, f.sigma, terms)


def interacting_energy(
    state: State, params: FluidParams, sigma: float
) -> InteractingEnergy:
    """Momentum-fluctuation energy, its correction, and the matching dissipation.

    E_script uses the quadratic pressure potential (so it vanishes at the
    aligned uniform equilibrium and is comparable to the fluctuation
    functional).  For sigma > 0 the correction couples the fluid momentum
    fluctuation to the density through the divergence-lifting operator, and
    D_sigma carries the ten corresponding terms, reported individually in
    ``terms`` for debuggability.  The pair satisfies
    d(E_sigma)/dt / 2 + D_sigma = 0 along solutions of the coupled system.
    """
    return _interacting(_Fields(state, params, sigma))


def _sigma_max(n_bar: float, bounds: tuple[float, float], cstar: float) -> float:
    return min(1.0 / n_bar, 2.0 * bounds[0] / cstar)


def _sigma_default(n_bar: float, bounds: tuple[float, float], cstar: float) -> float:
    return min(0.01, 0.5 * _sigma_max(n_bar, bounds, cstar))


def sigma_admissible_max(state: State, params: FluidParams, cstar: float) -> float:
    """Largest sigma keeping the lower equivalence constant positive."""
    n_bar = float(np.max(1.0 + state.n))
    return _sigma_max(n_bar, _bounds_above(n_bar, params.gamma), cstar)


def sigma_default(state: State, params: FluidParams, cstar: float) -> float:
    n_bar = float(np.max(1.0 + state.n))
    return _sigma_default(n_bar, _bounds_above(n_bar, params.gamma), cstar)


def _equivalence(
    rho_c: float, n_bar: float, bounds: tuple[float, float], sigma: float, cstar: float
) -> tuple[float, float]:
    c1_pp, c2_pp = bounds
    frac = rho_c / (rho_c + 1.0)
    c1 = min(1.0 - sigma * n_bar, frac, 2.0 * c1_pp - sigma * cstar)
    c2 = max(1.0 + sigma * n_bar, frac, 2.0 * c2_pp + sigma * cstar)
    return c1, c2


def equivalence_constants(
    state: State, params: FluidParams, sigma: float, cstar: float
) -> tuple[float, float]:
    """(c1, c2) with c1 * L <= E_sigma <= c2 * L for admissible sigma.

    The pressure-term constants are twice the pressure-potential bounds
    (the interacting energy carries the potential with coefficient 2).
    """
    n_bar = float(np.max(1.0 + state.n))
    bounds = _bounds_above(n_bar, params.gamma)
    return _equivalence(averages(state).rho_c, n_bar, bounds, sigma, cstar)


# ---------------------------------------------------------------------------
# inequality checks with explicit constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JcBounds:
    ok: bool
    slack_momentum: float  # E0 - |j_c|^2
    slack_rate: float  # rho_c * mean(rho|u-v|^2) - |j_c'|^2


def _jc_bounds(f: _Fields, e0: float) -> JcBounds:
    slack_mom = e0 - float(np.sum(f.av.j_c**2))
    slack_rate = f.av.rho_c * f.i3 - float(np.sum(f.jc_prime**2))
    ok = slack_mom >= -1e-10 and slack_rate >= -1e-10
    return JcBounds(ok, slack_mom, slack_rate)


def jc_bounds_check(state: State, params: FluidParams, e0: float) -> JcBounds:
    """|j_c|^2 <= E(0) and |j_c'|^2 <= rho_c * mean(rho|u-v|^2)."""
    return _jc_bounds(_Fields(state, params), e0)


@dataclass(frozen=True)
class DissipationDomination:
    ok: bool
    C_explicit: float
    lhs: float  # L_p
    rhs: float  # C_explicit * D


def _domination(f: _Fields, n_bar: float) -> DissipationDomination:
    rho_c = f.av.rho_c
    rho_bar = float(np.max(f.state.rho))
    c_expl = (2.0 / min(1.0, rho_c)) * max(
        1.0, 2.0 * (3.0 * (rho_c * n_bar + rho_bar) + n_bar) / f.params.mu
    )
    rhs = c_expl * f.D
    ok = f.L_p <= rhs * (1.0 + 1e-9) + 1e-14
    return DissipationDomination(ok, c_expl, f.L_p, rhs)


def dissipation_domination_check(
    state: State, params: FluidParams
) -> DissipationDomination:
    """L_p <= C * D with the explicit constant (Poincare constant 1).

    C = 2/min(1, rho_c) * max(1, 2*(3*(rho_c*n_bar + rho_bar) + n_bar)/mu),
    with rho_bar = max rho and n_bar = max (1+n) over the grid.
    """
    return _domination(_Fields(state, params), float(np.max(1.0 + state.n)))


def _energy_density(f: _Fields) -> tuple[float, tuple[float, float]]:
    if float(np.max(np.abs(f.state.n))) > 0.5:
        raise HypothesisViolated("energy_density_e0 requires max|n| <= 1/2")
    vsq = _dot_sq(f.v)
    e0 = f.pdev / (f.params.gamma - 1.0) + 0.5 * f.n1 * vsq
    denom = f.state.n * f.state.n + vsq
    mask = denom > 1e-14
    if np.any(mask):
        ratios = e0[mask] / denom[mask]
        bounds = (float(np.min(ratios)), float(np.max(ratios)))
    else:
        bounds = (math.nan, math.nan)
    return _mean(e0), bounds


def energy_density_e0(
    state: State, params: FluidParams
) -> tuple[float, tuple[float, float]]:
    """Pointwise energy density of the fluid phase and its quadratic ratio.

    E0(n, v) = ((1+n)^gamma - 1 - gamma n)/(gamma-1) + (1+n)|v|^2 / 2.
    Returns (mean of E0, (min, max) of E0/(n^2 + |v|^2) where the
    denominator exceeds 1e-14).  Requires the grid max of |n| <= 1/2.
    """
    return _energy_density(_Fields(state, params, gradients=False))


# ---------------------------------------------------------------------------
# identity residuals (centered differences around one state)
# ---------------------------------------------------------------------------

RESIDUALS = ("energy_balance", "esigma_balance", "fluct_particle", "fluct_fluid", "momentum_gap")


def _nonuniform_derivative(f0: float, f1: float, f2: float, h0: float, h1: float) -> float:
    """Second-order first derivative at the middle of three samples."""
    return (h0 * h0 * f2 - h1 * h1 * f0 + (h1 * h1 - h0 * h0) * f1) / (
        h0 * h1 * (h0 + h1)
    )


def _residuals(times, before, f: _Fields, after, inter: InteractingEnergy) -> dict:
    """Residuals at the centre ``f``; ``before``/``after`` are the neighbours' energies."""
    h0, h1 = times[1] - times[0], times[2] - times[1]
    if h0 <= 0 or h1 <= 0:
        raise DiagnosticsError("samples must be strictly increasing in time")
    rate = [0.5 * _nonuniform_derivative(*e, h0, h1) for e in zip(before, f.energies, after)]
    s, av = f.state, f.av
    return {
        "energy_balance": rate[0] + f.D,
        "esigma_balance": rate[1] + inter.D_sigma,
        "fluct_particle": rate[2] + _mean(s.rho * np.sum(f.du * f.diff, axis=0)),
        "fluct_fluid": rate[3] + (f.i1 + f.i2) - _mean(s.rho * np.sum(f.dv * f.diff, axis=0)),
        "momentum_gap": rate[4]
        + (1.0 + av.rho_c) / av.rho_c * float(np.dot(av.m_c - av.j_c, f.jc_prime)),
    }


def identity_residuals(
    before: tuple[float, State],
    center: tuple[float, State],
    after: tuple[float, State],
    params: FluidParams,
    sigma: float,
) -> dict:
    """Per-unit-time residuals of the balance identities at the center state.

    Residuals of: the total-energy balance, the interacting-energy balance
    at the given sigma, and the three fluctuation identities (particle
    fluctuation, fluid fluctuation + pressure, mean-momentum gap).  All are
    second-order accurate in the sample spacing.  The neighbours contribute
    only their energy scalars.
    """
    (t0, s0), (t1, s1), (t2, s2) = before, center, after
    f = _Fields(s1, params, sigma)
    e_before = _Fields(s0, params, sigma, gradients=False).energies
    e_after = _Fields(s2, params, sigma, gradients=False).energies
    return _residuals((t0, t1, t2), e_before, f, e_after, _interacting(f))


# ---------------------------------------------------------------------------
# decay fitting and record-level checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    c_hat: float
    r_squared: float
    window: tuple[float, float]


def decay_fit(
    times,
    values,
    window: tuple[float, float] | None = None,
    min_records: int = 10,
) -> DecayFit:
    """Least-squares line on (t, log value); lambda_hat is minus the slope.

    Default window drops the first 20% of the samples (transient).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is None:
        lo = t[0] + 0.2 * (t[-1] - t[0])
        window = (lo, t[-1])
    sel = (t >= window[0]) & (t <= window[1])
    t, y = t[sel], y[sel]
    if len(t) < min_records or np.any(y <= 0.0) or len(t) == 0:
        raise NonPositiveValues(
            f"need >= {min_records} records with positive values in window"
        )
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    # clamp: non-decaying series can push the raw statistic below zero
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(float(-slope), float(np.exp(intercept)), r2, window)


def characteristic_lower_bound_check(
    records, tol_factor: float = 1e-6
) -> tuple[bool, list[float]]:
    """min rho(t) >= (min rho_0) * exp(-int_0^t max|grad u|) - tol.

    Accumulates the gradient integral by the trapezoid rule over records.
    Returns (all ok, per-record margins min_rho - bound + tol).
    """
    if not records:
        raise DiagnosticsError("no records")
    delta0 = records[0].functionals.min_rho
    tol = tol_factor * delta0
    accum = 0.0
    margins = []
    prev_t = records[0].t
    prev_g = records[0].functionals.grad_u_max
    ok = True
    for rec in records:
        accum += 0.5 * (rec.functionals.grad_u_max + prev_g) * (rec.t - prev_t)
        prev_t, prev_g = rec.t, rec.functionals.grad_u_max
        bound = delta0 * math.exp(-accum) - tol
        margin = rec.functionals.min_rho - bound
        margins.append(margin)
        ok = ok and margin >= 0.0
    return ok, margins


def alignment_target(averages0: Averages) -> np.ndarray:
    """Common limit velocity of both phases, from conserved total momentum.

    Equals (rho_c(0) * m_c(0) + j_c(0)) / (rho_c(0) + 1) on the unit-mass
    torus; with unit background density rho_c(0) = 1 this is the arithmetic
    combination (m_c(0) + j_c(0)) / (1 + rho_c(0)).
    """
    return (averages0.rho_c * averages0.m_c + averages0.j_c) / (averages0.rho_c + 1.0)


def alignment_check(records, averages0: Averages | None = None) -> dict:
    """Series of grid-max velocity distances to the limit and the mean gap."""
    if not records:
        raise DiagnosticsError("no records")
    u_dist = [r.functionals.u_align_dist for r in records]
    v_dist = [r.functionals.v_align_dist for r in records]
    mcjc = [
        float(np.sqrt(np.sum((r.averages.m_c - r.averages.j_c) ** 2)))
        for r in records
    ]
    return {"u_dist": u_dist, "v_dist": v_dist, "mcjc_dist": mcjc}


# ---------------------------------------------------------------------------
# per-record bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Functionals:
    E: float
    D: float
    L: float
    L_p: float
    E_script: float
    E_sigma: float
    D_sigma: float
    E0_integral: float
    sigma: float
    min_rho: float
    min_n1: float
    grad_u_max: float
    E_dev: float
    u_align_dist: float
    v_align_dist: float


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    averages: Averages
    functionals: Functionals
    mass_n: float
    mom_total: np.ndarray
    residuals: dict
    checks: dict
    flags: tuple[str, ...] = ()


_CSTAR_CACHE: dict[tuple[int, int], float] = {}


def cached_bogovskii_constant(grid: Grid) -> float:
    key = (grid.dim, grid.n)
    if key not in _CSTAR_CACHE:
        _CSTAR_CACHE[key] = empirical_bogovskii_constant(grid)
    return _CSTAR_CACHE[key]


class Recorder:
    """Evaluates the full diagnostics bundle for one run.

    sigma is resolved once from the first recorded state (or the override)
    and kept fixed so the corrected-energy series obeys one identity; the
    alignment target and the initial energy are captured at the first
    record.
    """

    def __init__(
        self,
        grid: Grid,
        params: FluidParams,
        sigma: float | None = None,
        cstar: float | None = None,
    ):
        self.grid = grid
        self.params = params
        self.cstar = cstar if cstar is not None else cached_bogovskii_constant(grid)
        self._sigma_override = sigma
        self.sigma: float | None = None
        self.averages0: Averages | None = None
        self.e0: float | None = None
        self._target: np.ndarray | None = None

    def record(
        self,
        t: float,
        state: State,
        window=None,
        flags: tuple[str, ...] = (),
    ) -> DiagnosticsRecord:
        params = self.params
        n_bar = float(np.max(1.0 + state.n))
        bounds = _bounds_above(n_bar, params.gamma)
        if self.sigma is None:
            self.sigma = (
                self._sigma_override
                if self._sigma_override is not None
                else _sigma_default(n_bar, bounds, self.cstar)
            )
        f = _Fields(state, params, self.sigma)
        if self.averages0 is None:
            self.averages0 = f.av
            self._target = alignment_target(f.av)
        if self.e0 is None:
            self.e0 = f.E

        inter = _interacting(f)
        try:
            e0_int, _ = _energy_density(f)
        except HypothesisViolated:
            e0_int = math.nan
            flags = flags + ("e0_hypothesis",)

        tgt = self._target.reshape((-1,) + (1,) * self.grid.dim)
        u_dist = float(np.max(np.sqrt(_dot_sq(f.u - tgt))))
        v_dist = float(np.max(np.sqrt(_dot_sq(f.v - tgt))))

        if window is None:
            residuals = dict.fromkeys(RESIDUALS, math.nan)
            flags = flags + ("endpoint",)
        else:
            (h0, s_prev), (h1, s_next) = window
            e_before = _Fields(s_prev, params, self.sigma, gradients=False).energies
            e_after = _Fields(s_next, params, self.sigma, gradients=False).energies
            residuals = _residuals((t - h0, t, t + h1), e_before, f, e_after, inter)

        funcs = Functionals(
            E=f.E,
            D=f.D,
            L=f.L,
            L_p=f.L_p,
            E_script=inter.E_script,
            E_sigma=inter.E_sigma,
            D_sigma=inter.D_sigma,
            E0_integral=e0_int,
            sigma=self.sigma,
            min_rho=state.min_rho(),
            min_n1=f.min_n1,
            grad_u_max=gradient_norm_max(self.grid, f.u),
            E_dev=f.E_dev,
            u_align_dist=u_dist,
            v_align_dist=v_dist,
        )

        jc = _jc_bounds(f, self.e0)
        dom = _domination(f, n_bar)
        c1, c2 = _equivalence(f.av.rho_c, n_bar, bounds, self.sigma, self.cstar)
        checks = {
            "jc_momentum_slack": jc.slack_momentum,
            "jc_rate_slack": jc.slack_rate,
            "domination_C": dom.C_explicit,
            "domination_slack": dom.rhs - dom.lhs,
            "equiv_c1": c1,
            "equiv_c2": c2,
            "equiv_lower_slack": funcs.E_sigma - c1 * funcs.L,
            "equiv_upper_slack": c2 * funcs.L - funcs.E_sigma,
        }
        return DiagnosticsRecord(
            t=t,
            averages=f.av,
            functionals=funcs,
            mass_n=_mean(state.n),
            mom_total=_mean_vec(state.m) + _mean_vec(state.j),
            residuals=residuals,
            checks=checks,
            flags=flags,
        )
