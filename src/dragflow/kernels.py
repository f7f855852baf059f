"""Hot particle kernels: periodic wrap, cell index, linear gather, and
cloud-in-cell deposition of the first ``count`` velocity moments.

``cell_index`` gives each position its cell ``i0`` and offset ``frac`` in
[0, 1); ``gather`` and ``deposit_moments`` take that pair, so a set of
positions is indexed once however often it is read.  ``wrap`` is
``a % TWO_PI`` bit for bit, computed with ``fmod`` at about a quarter of
the cost.  Both are numpy only.  The gather and the deposit are compiled
with numba when it is available (the optional ``jit`` extra).  The path is
chosen once, at import:

* ``HAVE_NUMBA`` is true exactly when ``numba`` imports and the environment
  variable ``SIM_NUMBA`` is not ``"0"``; ``SIM_NUMBA=0`` always forces the
  pure-numpy fallback.
* The module-level names ``deposit_moments`` and ``gather`` then point at
  the JIT kernels (``deposit_moments_numba``, ``gather_numba``), and
  otherwise at the numpy ones (``deposit_moments_numpy``, ``gather_numpy``).
  Both paths take the same arguments and return the same arrays.

The numpy kernels are always defined, for testing.  To time the selected
path per particle, run ``python3 perfbench/run.py --workload kinetic1d
--trace 1`` (``kernels.*.ns_per_particle``); prefix ``SIM_NUMBA=0`` to time
the numpy path.
"""
from __future__ import annotations

import os

import numpy as np

from .grid import TWO_PI

_want_numba = os.environ.get("SIM_NUMBA", "1") != "0"
try:
    if _want_numba:
        from numba import njit
    else:  # pragma: no cover - exercised via subprocess in tests
        njit = None
except ImportError:  # pragma: no cover
    njit = None

HAVE_NUMBA = njit is not None


def wrap(a):
    """``a % TWO_PI``, bit for bit on finite input, computed with fmod."""
    r = np.fmod(a, TWO_PI)
    np.add(r, TWO_PI, out=r, where=r < 0.0)
    r += 0.0  # -0.0 (a negative multiple of 2*pi) becomes +0.0, as with %
    return r


def cell_index(x, dx, n_cells):
    """Cell ``i0`` (int64, in [0, n_cells)) and offset ``frac`` in [0, 1)
    of each position on the periodic grid of spacing ``dx``."""
    s = x / dx
    i0 = np.floor(s)
    frac = np.subtract(s, i0, out=s)
    if i0.size and not (i0.min() >= 0.0 and i0.max() < n_cells):
        # a position at (or rounding to) 2*pi, or outside [0, 2*pi)
        if not np.all(np.isfinite(i0)):
            raise ValueError("particle positions must be finite")
        np.remainder(i0, n_cells, out=i0)
    return i0.astype(np.int64), frac


def deposit_moments_numpy(i0, frac, xi, w, n_cells, count):
    """CIC deposition of the first ``count`` velocity moments.

    Returns an array of shape (count, n_cells) with
    s[k, g] = sum_i w_i xi_i^k W_g(x_i); the linear kernel telescopes, so
    sum(s[0]) == sum(w) exactly.  A particle's right-hand share goes to the
    next cell, which is the left-hand deposit rolled by one.
    """
    out = np.empty((count, n_cells))
    left = w * (1.0 - frac)
    right = w * frac
    for k in range(count):
        out[k] = np.bincount(i0, left, n_cells) + np.roll(np.bincount(i0, right, n_cells), 1)
        if k + 1 < count:
            left *= xi
            right *= xi
    return out


def gather_numpy(values, i0, frac):
    """Linear interpolation of a periodic grid field at cell indices."""
    return values[i0] * (1.0 - frac) + np.roll(values, -1)[i0] * frac


if HAVE_NUMBA:

    @njit(cache=True)
    def deposit_moments_numba(i0, frac, xi, w, n_cells, count):  # pragma: no cover - jit
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

    @njit(cache=True)
    def gather_numba(values, i0, frac):  # pragma: no cover - jit
        n_cells = values.shape[0]
        out = np.empty(i0.shape[0])
        for p in range(i0.shape[0]):
            g = i0[p]
            g1 = g + 1 if g + 1 < n_cells else 0
            out[p] = values[g] * (1.0 - frac[p]) + values[g1] * frac[p]
        return out

    deposit_moments = deposit_moments_numba
    gather = gather_numba
else:
    deposit_moments = deposit_moments_numpy
    gather = gather_numpy
