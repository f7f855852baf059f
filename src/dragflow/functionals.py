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
    _dot,
    _fluid_stack,
    _pairs,
    gradient_norm_max,
    pressure_deviation,
    primitives,
)
from .grid import BOGOVSKII_CONSTANT, Grid


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
    # np.mean's own arithmetic (a sum, then a division) without its wrapper,
    # whose call overhead is most of the cost on 64-point fields
    return float(f.sum()) / f.size


def _mean_vec(v: np.ndarray) -> np.ndarray:
    return v.reshape(v.shape[0], -1).sum(axis=1) / v[0].size


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
    """Derived fields and scalars of one state, built once and shared by every functional.

    Pointwise products stay in physical space: the energies, the
    fluctuation terms, I3, j_c', E0 and the alignment distances.  The
    terms that pair derivatives, the Bogovskii lift ``grad(phi)`` with
    ``laplacian(phi) = n`` or dealiased products (I1, I2, I4-I10, the
    E_sigma cross term) are Parseval sums over the half spectrum, read from
    one forward transform call; no inverse transform is made.  ``energies``
    is what the state contributes to the centred differences of a residual
    window, and ``sinks`` what the centre contributes, both in RESIDUALS
    order.
    """

    def __init__(self, state: State, params: FluidParams, sigma: float = 0.0):
        if sigma < 0.0:
            raise DiagnosticsError("sigma must be nonnegative")
        g = state.grid
        d = g.dim
        self.state, self.params = state, params
        self.n1 = 1.0 + state.n
        self.u, self.v, self.min_n1, _ = primitives(state)
        if self.min_n1 <= 0.0:
            raise NonPositiveDensity("diagnostics: min(1+n) <= 0")
        self.n_bar = float(self.n1.max())
        self.av = av = averages(state)
        bshape = (-1,) + (1,) * d
        du = self.u - av.m_c.reshape(bshape)
        dv = self.v - av.j_c.reshape(bshape)
        diff = self.u - self.v

        # physical stack: j, v, p - 1, the pairs j_a v_b, then n and rho (u - v)
        pairs = _pairs(d)
        phys = _fluid_stack(g, state.n, state.j, self.v, params.gamma, 1 + d)
        at = 2 * d + 1 + len(pairs)
        phys[at] = state.n
        np.multiply(state.rho, diff, out=phys[at + 1 :])
        self.pdev = phys[2 * d] - params.gamma * state.n
        self.jc_prime = _mean_vec(phys[at + 1 :])
        hat = g._fft(phys)
        del phys
        jhat, vhat, p1hat = hat[:d], hat[d : 2 * d], hat[2 * d]
        flux_hat, nhat, drag_hat = hat[2 * d + 1 : at], hat[at], hat[at + 1 :]

        self.fluct_p = _mean(state.rho * _dot_sq(du))
        self.fluct_f = _mean(self.n1 * _dot_sq(dv))
        self.gap_sq = float(np.sum((av.m_c - av.j_c) ** 2))
        self.L_p = self.fluct_p + self.fluct_f + self.gap_sq
        self.L = self.L_p + _mean(state.n * state.n)
        # mean of f(1+n; 1), via the cancellation-free deviation identity
        self.potential = _mean(self.pdev) / (params.gamma - 1.0)
        ke_p = _mean(_dot_sq(state.m) / np.maximum(state.rho, VACUUM_FLOOR))
        self.E_dev = ke_p + _mean(_dot_sq(state.j) / self.n1) + 2.0 * self.potential
        self.E = self.E_dev + 2.0 * (1.0 + params.gamma * _mean(state.n)) / (params.gamma - 1.0)
        self.E_script = self.fluct_p + self.fluct_f + 2.0 * self.potential + (
            av.rho_c / (1.0 + av.rho_c) * self.gap_sq
        )

        # |grad v|^2 and (div v)^2: d_b pairs with d_b to k_b^2
        div_v_hat = _dot(g._ik, vhat, range(d))
        self.i1 = params.mu * float(g.inner(vhat, g._k2 * vhat).sum())
        self.i2 = (params.mu + params.lam) * float(g.inner(div_v_hat, div_v_hat))
        self.i3 = _mean(state.rho * _dot_sq(diff))
        self.D = self.i1 + self.i2 + self.i3

        self.E_sigma, extra = self.E_script, (0.0,) * 7
        if sigma > 0.0:
            lift = g._lift(nhat)
            # (1+n) dv = j - j_c (1+n); the lifts have no k = 0 mode to meet j_c
            dv1 = jhat - av.j_c.reshape(bshape) * nhat
            div_j = _dot(g._ik, jhat, range(d))
            # the Hessian of phi is d_b of the lift, symmetric like the flux;
            # the first pair is (0, 0), of weight 1
            flux_hess = g.inner(flux_hat[0], g._ik_dealias[0] * lift[0])
            for k, (a, b) in enumerate(pairs[1:], start=1):
                weight = 1.0 if a == b else 2.0
                flux_hess += weight * g.inner(flux_hat[k], g._ik_dealias[b] * lift[a])
            self.E_sigma -= 2.0 * sigma * float(g.inner(dv1, lift).sum())
            # I4-I10; grad v meets the Hessian as in I1, d_b with d_b to k_b^2
            extra = (
                sigma * float(flux_hess),
                sigma * float(g.inner(nhat, g._dealias_keep * p1hat)),
                -sigma * params.mu * float(g.inner(vhat, g._k2 * lift).sum()),
                -sigma * (params.mu + params.lam) * float(g.inner(div_v_hat, nhat)),
                sigma * float(g.inner(drag_hat, g._dealias_keep * lift).sum()),
                -sigma * float(g.inner(dv1, g._lift(div_j)).sum()),
                # mean((1+n) lift) = mean(n lift): the lift has mean zero
                -sigma * (-float(np.dot(av.j_c, g.inner(div_j, lift)))
                          + float(np.dot(self.jc_prime, g.inner(nhat, lift)))),
            )
        values = (self.i1, self.i2, self.i3) + extra
        self.terms = {f"I{k}": val for k, val in enumerate(values, start=1)}
        self.D_sigma = self.D
        for val in extra:
            self.D_sigma += val

        self.energies = (self.E_dev, self.E_sigma, self.fluct_p,
                         self.fluct_f + 2.0 * self.potential, self.gap_sq)
        self.sinks = (
            self.D,
            self.D_sigma,
            _mean(state.rho * np.sum(du * diff, axis=0)),
            (self.i1 + self.i2) - _mean(state.rho * np.sum(dv * diff, axis=0)),
            (1.0 + av.rho_c) / av.rho_c * float(np.dot(av.m_c - av.j_c, self.jc_prime)),
        )


# ---------------------------------------------------------------------------
# basic functionals
# ---------------------------------------------------------------------------


def energy_deviation(state: State, params: FluidParams) -> float:
    """Total energy minus its equilibrium constant 2/(gamma-1).

    Deviation form of the kinetic + internal energy: exact up to the
    conserved mean(n) term, and conditioned on the size of the
    fluctuations rather than on the O(1) equilibrium energy, which keeps
    the balance residual measurable at late times.
    """
    return _Fields(state, params).E_dev


def total_energy(state: State, params: FluidParams) -> float:
    """E = mean(rho|u|^2 + (1+n)|v|^2) + 2*mean((1+n)^gamma)/(gamma-1).

    The pressure potential carries the coefficient 2/(gamma-1): that is the
    combination whose halved time derivative balances the dissipation
    exactly (d(E)/dt / 2 + D = 0), matches the interacting energy-variation
    term for term, and is monotone along solutions.
    """
    return _Fields(state, params).E


def dissipation(state: State, params: FluidParams) -> float:
    """mu*mean|grad v|^2 + (mu+lam)*mean|div v|^2 + mean rho|u-v|^2."""
    return _Fields(state, params).D


def lyapunov(state: State, params: FluidParams) -> tuple[float, float]:
    """Momentum/mass fluctuation functional; returns (L, L_p)."""
    f = _Fields(state, params)
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
    f = _Fields(state, params, sigma)
    return InteractingEnergy(f.E_script, f.E_sigma, f.D_sigma, sigma, f.terms)


def _sigma_max(n_bar: float, bounds: tuple[float, float]) -> float:
    return min(1.0 / n_bar, 2.0 * bounds[0] / BOGOVSKII_CONSTANT)


def _sigma_default(n_bar: float, bounds: tuple[float, float]) -> float:
    return min(0.01, 0.5 * _sigma_max(n_bar, bounds))


def sigma_admissible_max(state: State, params: FluidParams) -> float:
    """Largest sigma keeping the lower equivalence constant positive."""
    n_bar = float(np.max(1.0 + state.n))
    return _sigma_max(n_bar, _bounds_above(n_bar, params.gamma))


def sigma_default(state: State, params: FluidParams) -> float:
    n_bar = float(np.max(1.0 + state.n))
    return _sigma_default(n_bar, _bounds_above(n_bar, params.gamma))


def _equivalence(
    rho_c: float, n_bar: float, bounds: tuple[float, float], sigma: float
) -> tuple[float, float]:
    c1_pp, c2_pp = bounds
    frac = rho_c / (rho_c + 1.0)
    c1 = min(1.0 - sigma * n_bar, frac, 2.0 * c1_pp - sigma * BOGOVSKII_CONSTANT)
    c2 = max(1.0 + sigma * n_bar, frac, 2.0 * c2_pp + sigma * BOGOVSKII_CONSTANT)
    return c1, c2


def equivalence_constants(
    state: State, params: FluidParams, sigma: float
) -> tuple[float, float]:
    """(c1, c2) with c1 * L <= E_sigma <= c2 * L for admissible sigma.

    The pressure-term constants are twice the pressure-potential bounds
    (the interacting energy carries the potential with coefficient 2).
    """
    n_bar = float(np.max(1.0 + state.n))
    bounds = _bounds_above(n_bar, params.gamma)
    return _equivalence(averages(state).rho_c, n_bar, bounds, sigma)


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


def _domination(f: _Fields) -> DissipationDomination:
    rho_c, n_bar = f.av.rho_c, f.n_bar
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
    return _domination(_Fields(state, params))


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
    return _energy_density(_Fields(state, params))


# ---------------------------------------------------------------------------
# identity residuals (centered differences around one state)
# ---------------------------------------------------------------------------

RESIDUALS = ("energy_balance", "esigma_balance", "fluct_particle", "fluct_fluid", "momentum_gap")


def _nonuniform_derivative(f0: float, f1: float, f2: float, h0: float, h1: float) -> float:
    """Second-order first derivative at the middle of three samples."""
    return (h0 * h0 * f2 - h1 * h1 * f0 + (h1 * h1 - h0 * h0) * f1) / (
        h0 * h1 * (h0 + h1)
    )


def _residuals(times, before: tuple, centre, after: tuple) -> dict:
    """Residuals at ``centre``, from its ``energies`` and ``sinks``;
    ``before``/``after`` are the neighbours' energies."""
    h0, h1 = times[1] - times[0], times[2] - times[1]
    if h0 <= 0 or h1 <= 0:
        raise DiagnosticsError("samples must be strictly increasing in time")
    samples = zip(before, centre.energies, after)
    return {
        name: 0.5 * _nonuniform_derivative(*e, h0, h1) + sink
        for name, e, sink in zip(RESIDUALS, samples, centre.sinks)
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
    e_before = _Fields(s0, params, sigma).energies
    e_after = _Fields(s2, params, sigma).energies
    return _residuals((t0, t1, t2), e_before, _Fields(s1, params, sigma), e_after)


# ---------------------------------------------------------------------------
# decay fitting and record-level checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    c_hat: float
    r_squared: float
    window: tuple[float, float]


def decay_fit(times, values, window: tuple[float, float] | None = None) -> DecayFit:
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
    if len(t) < 10 or np.any(y <= 0.0):
        raise NonPositiveValues("need >= 10 records with positive values in window")
    logy = np.log(y)
    slope, intercept = np.polyfit(t, logy, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    # clamp: non-decaying series can push the raw statistic below zero
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(float(-slope), float(np.exp(intercept)), r2, window)


def characteristic_lower_bound_check(records) -> tuple[bool, list[float]]:
    """min rho(t) >= (min rho_0) * exp(-int_0^t max|grad u|) - tol,
    with tol = 1e-6 * min rho_0.

    Accumulates the gradient integral by the trapezoid rule over records.
    Returns (all ok, per-record margins min_rho - bound + tol).
    """
    if not records:
        raise DiagnosticsError("no records")
    delta0 = records[0].functionals.min_rho
    tol = 1e-6 * delta0
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


def alignment_check(records) -> dict:
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


@dataclass(frozen=True)
class Evaluation:
    """What the records take from one state: scalars and dim-vectors, no fields.

    ``energies`` is the state's share of the centred differences of a
    residual window, ``sinks`` the centre's share, both in RESIDUALS order.
    """

    averages: Averages
    functionals: Functionals
    mass_n: float
    mom_total: np.ndarray
    checks: dict
    energies: tuple[float, ...]
    sinks: tuple[float, ...]
    flags: tuple[str, ...]


class Recorder:
    """Evaluates the full diagnostics bundle for one run.

    sigma is resolved once from the first evaluated state (or the override)
    and kept fixed so the corrected-energy series obeys one identity; the
    alignment target and the initial energy are captured at the same state.
    A caller that keeps each state's ``evaluate`` result evaluates every
    state once, however many records it serves.
    """

    def __init__(
        self,
        grid: Grid,
        params: FluidParams,
        sigma: float | None = None,
    ):
        self.grid = grid
        self.params = params
        self._sigma_override = sigma
        self.sigma: float | None = None
        self.averages0: Averages | None = None
        self.e0: float | None = None
        self._target: np.ndarray | None = None

    def evaluate(self, state: State, grad_u_max: float | None = None) -> Evaluation:
        """Every scalar a record takes from ``state``.  ``grad_u_max`` is the
        state's ``grad_velocity_max`` when the caller has it already."""
        params = self.params
        if self.sigma is None:
            self.sigma = self._sigma_override
            if self.sigma is None:
                self.sigma = sigma_default(state, params)
        f = _Fields(state, params, self.sigma)
        if self.averages0 is None:
            self.averages0, self._target, self.e0 = f.av, alignment_target(f.av), f.E

        flags = ()
        try:
            e0_int, _ = _energy_density(f)
        except HypothesisViolated:
            e0_int = math.nan
            flags = ("e0_hypothesis",)
        if grad_u_max is None:
            grad_u_max = gradient_norm_max(self.grid, f.u)
        tgt = self._target.reshape((-1,) + (1,) * self.grid.dim)
        funcs = Functionals(
            E=f.E,
            D=f.D,
            L=f.L,
            L_p=f.L_p,
            E_script=f.E_script,
            E_sigma=f.E_sigma,
            D_sigma=f.D_sigma,
            E0_integral=e0_int,
            sigma=self.sigma,
            min_rho=state.min_rho(),
            min_n1=f.min_n1,
            grad_u_max=grad_u_max,
            E_dev=f.E_dev,
            u_align_dist=float(np.max(np.sqrt(_dot_sq(f.u - tgt)))),
            v_align_dist=float(np.max(np.sqrt(_dot_sq(f.v - tgt)))),
        )

        jc = _jc_bounds(f, self.e0)
        dom = _domination(f)
        bounds = _bounds_above(f.n_bar, params.gamma)
        c1, c2 = _equivalence(f.av.rho_c, f.n_bar, bounds, self.sigma)
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
        mom_total = _mean_vec(state.m) + _mean_vec(state.j)
        return Evaluation(
            f.av, funcs, _mean(state.n), mom_total, checks, f.energies, f.sinks, flags
        )

    def record(
        self,
        t: float,
        state: State,
        window=None,
        flags: tuple[str, ...] = (),
        evaluation: Evaluation | None = None,
    ) -> DiagnosticsRecord:
        """The record of ``state`` at time t; ``evaluation`` is
        ``self.evaluate(state)`` when the caller has it already.

        ``window`` is ``((h0, before), (h1, after))``: the neighbours'
        evaluations and their distances in time.  Without it the record is
        an endpoint and carries no residuals.
        """
        ev = evaluation if evaluation is not None else self.evaluate(state)
        flags = flags + ev.flags
        if window is None:
            residuals = dict.fromkeys(RESIDUALS, math.nan)
            flags = flags + ("endpoint",)
        else:
            (h0, before), (h1, after) = window
            residuals = _residuals((t - h0, t, t + h1), before.energies, ev, after.energies)

        # the endpoint residuals and E0_integral under e0_hypothesis are nan
        # by design; any other non-finite value is flagged
        watched = vars(ev.functionals) | ev.checks | (residuals if window is not None else {})
        if ev.flags:
            del watched["E0_integral"]
        if not all(math.isfinite(v) for v in watched.values()):
            flags = flags + ("nonfinite",)
        return DiagnosticsRecord(
            t, ev.averages, ev.functionals, ev.mass_n, ev.mom_total, residuals, ev.checks, flags
        )
