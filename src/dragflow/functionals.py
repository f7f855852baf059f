"""Functionals, exact identities, inequality checks, and decay fitting.

``Recorder.evaluate`` reads every functional and check of a state from its
derived fields, built once, into a ``DiagnosticsRecord`` at t = nan;
``Recorder.record`` sets its t, its window's residuals and its flags.  The
evaluation shares its forward transform with the state's next step.

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
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    VACUUM_FLOOR,
    FluidParams,
    NonPositiveDensity,
    State,
    _dot,
    _pairs,
    grad_velocity_max,
    pressure_deviation,
    primitives,
    rate_spectrum,
)
from .grid import BOGOVSKII_CONSTANT, Grid


class DiagnosticsError(ValueError):
    pass


class ZeroMass(DiagnosticsError):
    pass


class NonPositiveValues(DiagnosticsError):
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
# averaged quantities
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


# ---------------------------------------------------------------------------
# pressure potential f(r; r0), its quadratic bounds, sigma and the
# equivalence constants
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


def sigma_admissible_max(state: State, params: FluidParams) -> float:
    """Largest sigma keeping the lower equivalence constant positive."""
    n_bar = float(np.max(1.0 + state.n))
    return min(1.0 / n_bar, 2.0 * _bounds_above(n_bar, params.gamma)[0] / BOGOVSKII_CONSTANT)


def sigma_default(state: State, params: FluidParams) -> float:
    return min(0.01, 0.5 * sigma_admissible_max(state, params))


def _equivalence(
    rho_c: float, n_bar: float, bounds: tuple[float, float], sigma: float
) -> tuple[float, float]:
    """(c1, c2) with c1 * L <= E_sigma <= c2 * L for admissible sigma.

    The pressure-term constants are twice the pressure-potential bounds
    (the interacting energy carries the potential with coefficient 2).
    """
    c1_pp, c2_pp = bounds
    frac = rho_c / (rho_c + 1.0)
    c1 = min(1.0 - sigma * n_bar, frac, 2.0 * c1_pp - sigma * BOGOVSKII_CONSTANT)
    c2 = max(1.0 + sigma * n_bar, frac, 2.0 * c2_pp + sigma * BOGOVSKII_CONSTANT)
    return c1, c2


def _sigma_terms(g: Grid, params: FluidParams, sigma: float, j_c, hat, nhat, div_v_hat):
    """E_sigma - E_script and I4..I10 (their sum is D_sigma - D), from a
    state's ``rate_spectrum`` (drag rows included) and the spectra of n and
    of div v.  Each term that pairs a vector f with the Bogovskii lift
    grad(phi), laplacian(phi) = n, is read by parts as one Parseval sum,
    sum_a <f_a, d_a phi> = -<div f, phi>; the band rows (p - 1, the fluxes,
    the drag) are read only through the 2/3 rule."""
    d = g.dim
    pairs = _pairs(d)
    band = 3 * d
    p1hat, flux_hat, drag_hat = hat[band], hat[band + 1 : band + 1 + len(pairs)], hat[-d:]
    phi = nhat * g._inv_neg_k2
    # div((1+n) dv) = div j - j_c . grad n; the gradients have no k = 0 mode to meet j_c
    div_j = _dot(g._ik, hat, range(d))
    jc_ik = sum(c * ik for c, ik in zip(j_c, g._ik))
    div_dv1 = div_j - jc_ik * nhat
    # the flux meets the Hessian of phi, symmetric like the flux; the pairs
    # run over a, then b >= a, so d_a phi is formed once per a
    flux_hess = 0.0
    for k, (a, b) in enumerate(pairs):
        if a == b:
            d_phi = g._ik[a] * phi
        term = g.inner(flux_hat[k], g._ik_dealias[b] * d_phi)
        flux_hess += term if a == b else 2.0 * term
    # <v_a, d_a laplacian(phi)> = -<div v, n>: I6 and I7 share it
    div_v_n = float(g.inner(div_v_hat, nhat))
    cross = 2.0 * sigma * float(g.inner(div_dv1, phi))
    terms = (
        sigma * float(flux_hess),
        sigma * float(g.inner(nhat, g._dealias_keep * p1hat)),
        -sigma * params.mu * div_v_n,
        -sigma * (params.mu + params.lam) * div_v_n,
        -sigma * float(g.inner(_dot(g._ik_dealias, drag_hat, range(d)), phi)),
        # the lift of div j is grad(psi), laplacian(psi) = div j
        sigma * float(g.inner(div_dv1, div_j * g._inv_neg_k2)),
        # the paper's I10 also holds j_c' . mean((1+n) grad(phi)), which is
        # zero: mean(grad(phi)) = 0 and mean(n grad(phi)) = 0 as n = laplacian(phi)
        sigma * float(g.inner(div_j, jc_ik * phi)),
    )
    return cross, terms


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
    if len(t) < 10 or not np.all(np.isfinite(y) & (y > 0.0)):
        raise NonPositiveValues("need >= 10 records with finite positive values in window")
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
    """One record.  ``energies`` is the state's share of the centred
    differences of a residual window, ``sinks`` the centre's share, both in
    RESIDUALS order."""

    t: float
    averages: Averages
    functionals: Functionals
    mass_n: float
    mom_total: np.ndarray
    residuals: dict
    checks: dict
    flags: tuple[str, ...]
    energies: tuple[float, ...]
    sinks: tuple[float, ...]


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
        if sigma is not None and sigma < 0.0:
            raise DiagnosticsError("sigma must be nonnegative")
        self.grid = grid
        self.params = params
        self.sigma = sigma
        self.e0: float | None = None
        self._target: np.ndarray | None = None

    def evaluate(self, state: State, grad_u_max: float | None = None) -> DiagnosticsRecord:
        """Every scalar a record takes from ``state``, as a record at t = nan
        with nan residuals.  ``grad_u_max`` is the state's
        ``grad_velocity_max`` when the caller has it already.

        The state's fields are derived once.  E carries the pressure
        potential with coefficient 2/(gamma-1), so that d(E)/dt / 2 + D = 0;
        E_dev is E less its equilibrium value.  E_sigma adds to the
        fluctuation energy E_script the sigma-weighted coupling of the fluid
        momentum fluctuation to the density through the Bogovskii lift, and
        D_sigma = D + I4 + ... + I10 makes d(E_sigma)/dt / 2 + D_sigma = 0.

        Pointwise products stay in physical space: the energies, the
        fluctuation terms, I3, j_c', E0 and the alignment distances.  The
        terms that pair derivatives or dealiased products (I1, I2, I4-I10,
        the E_sigma cross term) are Parseval sums over the half spectrum;
        the sigma-weighted ones pair with phi, laplacian(phi) = n, by parts
        (``_sigma_terms``).  They read the spectrum ``rhs`` reads
        (``rate_spectrum``) and that of n, and no inverse transform.  The
        first is left on the state as its ``spectrum``, for the first stage
        of its step.
        """
        params = self.params
        if self.sigma is None:
            self.sigma = sigma_default(state, params)
        sigma, g = self.sigma, self.grid
        d = g.dim
        n1 = 1.0 + state.n
        u, v, min_n1, _ = primitives(state)
        if min_n1 <= 0.0:
            raise NonPositiveDensity("diagnostics: min(1+n) <= 0")
        n_bar = float(n1.max())
        av = averages(state)
        if grad_u_max is None:  # its transforms run before the spectra are made
            grad_u_max = grad_velocity_max(state)

        # the physical terms come first, and their work arrays are dropped
        # before the spectra are made: the 2-D and 3-D transient footprint.
        # p - 1 - gamma n and rho (u - v) have the bits of the spectrum's rows
        pdev = pressure_deviation(state.n, params.gamma)
        bshape = (-1,) + (1,) * d
        du = u - av.m_c.reshape(bshape)
        dv = v - av.j_c.reshape(bshape)
        diff = u - v
        jc_prime = _mean_vec(state.rho * diff)

        fluct_p = _mean(state.rho * _dot_sq(du))
        fluct_f = _mean(n1 * _dot_sq(dv))
        gap_sq = float(np.sum((av.m_c - av.j_c) ** 2))
        L_p = fluct_p + fluct_f + gap_sq
        L = L_p + _mean(state.n * state.n)
        # mean of f(1+n; 1), via the cancellation-free deviation identity
        potential = _mean(pdev) / (params.gamma - 1.0)
        ke_p = _mean(_dot_sq(state.m) / np.maximum(state.rho, VACUUM_FLOOR))
        E_dev = ke_p + _mean(_dot_sq(state.j) / n1) + 2.0 * potential
        E = E_dev + 2.0 * (1.0 + params.gamma * _mean(state.n)) / (params.gamma - 1.0)
        E_script = fluct_p + fluct_f + 2.0 * potential + (av.rho_c / (1.0 + av.rho_c) * gap_sq)
        i3 = _mean(state.rho * _dot_sq(diff))
        sink_p = _mean(state.rho * np.sum(du * diff, axis=0))
        sink_f = _mean(state.rho * np.sum(dv * diff, axis=0))
        del du, dv, diff

        # the spectrum rhs reads, with its drag rows whether or not the drag
        # is on; it stays on the state for the next stage
        hat = rate_spectrum(g, state.y, u, v, params.gamma, True)
        state.spectrum = (params, hat)
        nhat = g._fft(state.n)
        vhat = hat[d : 2 * d]
        # |grad v|^2 and (div v)^2: d_b pairs with d_b to k_b^2
        div_v_hat = _dot(g._ik, vhat, range(d))
        i1 = params.mu * float(g.inner(vhat, g._k2 * vhat).sum())
        i2 = (params.mu + params.lam) * float(g.inner(div_v_hat, div_v_hat))
        D = i1 + i2 + i3

        E_sigma, extra = E_script, (0.0,) * 7
        if sigma > 0.0:
            cross, extra = _sigma_terms(g, params, sigma, av.j_c, hat, nhat, div_v_hat)
            E_sigma += cross
        D_sigma = D
        for val in extra:
            D_sigma += val
        # the spectral work arrays are dropped before the rest of the record
        # allocates
        del hat, vhat, nhat, div_v_hat

        energies = (E_dev, E_sigma, fluct_p, fluct_f + 2.0 * potential, gap_sq)
        sinks = (
            D,
            D_sigma,
            sink_p,
            (i1 + i2) - sink_f,
            (1.0 + av.rho_c) / av.rho_c * float(np.dot(av.m_c - av.j_c, jc_prime)),
        )
        if self.e0 is None:
            self._target, self.e0 = alignment_target(av), E

        # the mean of the fluid's energy density
        # E0 = ((1+n)^gamma - 1 - gamma n)/(gamma-1) + (1+n)|v|^2 / 2,
        # defined under the hypothesis max|n| <= 1/2
        flags = ()
        if float(np.max(np.abs(state.n))) > 0.5:
            e0_int = math.nan
            flags = ("e0_hypothesis",)
        else:
            e0_int = _mean(pdev / (params.gamma - 1.0) + 0.5 * n1 * _dot_sq(v))
        tgt = self._target.reshape(bshape)
        funcs = Functionals(
            E=E,
            D=D,
            L=L,
            L_p=L_p,
            E_script=E_script,
            E_sigma=E_sigma,
            D_sigma=D_sigma,
            E0_integral=e0_int,
            sigma=sigma,
            min_rho=state.min_rho(),
            min_n1=min_n1,
            grad_u_max=grad_u_max,
            E_dev=E_dev,
            u_align_dist=float(np.max(np.sqrt(_dot_sq(u - tgt)))),
            v_align_dist=float(np.max(np.sqrt(_dot_sq(v - tgt)))),
        )

        # L_p <= C * D with the explicit constant (Poincare constant 1),
        # rho_bar = max rho and n_bar = max (1+n) over the grid
        rho_c = av.rho_c
        rho_bar = float(np.max(state.rho))
        c_expl = (2.0 / min(1.0, rho_c)) * max(
            1.0, 2.0 * (3.0 * (rho_c * n_bar + rho_bar) + n_bar) / params.mu
        )
        bounds = _bounds_above(n_bar, params.gamma)
        c1, c2 = _equivalence(rho_c, n_bar, bounds, sigma)
        # |j_c|^2 <= E(0) and |j_c'|^2 <= rho_c * mean(rho|u-v|^2)
        checks = {
            "jc_momentum_slack": self.e0 - float(np.sum(av.j_c**2)),
            "jc_rate_slack": rho_c * i3 - float(np.sum(jc_prime**2)),
            "domination_C": c_expl,
            "domination_slack": c_expl * D - L_p,
            "equiv_c1": c1,
            "equiv_c2": c2,
            "equiv_lower_slack": E_sigma - c1 * L,
            "equiv_upper_slack": c2 * L - E_sigma,
        }
        mom_total = _mean_vec(state.m) + _mean_vec(state.j)
        return DiagnosticsRecord(
            math.nan, av, funcs, _mean(state.n), mom_total,
            dict.fromkeys(RESIDUALS, math.nan), checks, flags, energies, sinks,
        )

    def record(
        self,
        t: float,
        state: State,
        window=None,
        flags: tuple[str, ...] = (),
        evaluation: DiagnosticsRecord | None = None,
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
            residuals = ev.residuals
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
        return replace(ev, t=t, residuals=residuals, flags=flags)
