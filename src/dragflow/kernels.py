"""Hot particle kernels: periodic wrap, cell index, linear gather, and
cloud-in-cell deposition of the first ``count`` velocity moments.

``cell_index`` gives each position its cell ``i0`` and offset ``frac`` in
[0, 1); ``gather`` and ``deposit_moments`` take that pair, so a set of
positions is indexed once however often it is read.  ``wrap`` is
``a % TWO_PI`` bit for bit, computed with ``fmod`` at about a quarter of
the cost.  All four are numpy, with one definition each.  To time the
gather and the deposit per particle, run ``python3 perfbench/run.py
--workload kinetic1d --trace 1`` (``kernels.*.ns_per_particle``).

``HAVE_NUMBA`` is always False.  It stays because the benchmark reads it
for its ``have_numba`` provenance field, and would fail to start without it.
"""
from __future__ import annotations

import numpy as np

from .grid import TWO_PI

# There is no numba path; perfbench/run.py reads this for its provenance.
HAVE_NUMBA = False


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


def deposit_moments(i0, frac, xi, w, n_cells, count):
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


def gather(values, i0, frac):
    """Linear interpolation of a periodic grid field at cell indices."""
    return values[i0] * (1.0 - frac) + np.roll(values, -1)[i0] * frac
