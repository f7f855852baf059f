"""Hot particle kernels: periodic wrap, cell index, linear gather, and
cloud-in-cell deposition of the first ``count`` velocity moments.

``cell_index`` gives each position its cell ``i0`` and offset ``frac`` in
[0, 1), by ``floor`` and, only for positions at (or rounding to) 2*pi or
outside [0, 2*pi), a remainder; ``gather`` and ``deposit_moments`` take that
pair, so a set of positions is indexed once however often it is read.
``wrap`` has an exact fast form for the input a particle step makes, chosen
by the range of its input and equal bit for bit to the general form: it
folds positions within one period of [0, 2*pi) by one subtraction or
addition of 2*pi, where anything else takes ``fmod``.  All four are numpy,
with one definition each.

``wrap``, ``cell_index`` and ``gather`` take an optional ``out=`` and write
their result there instead of into new arrays: for ``wrap`` and ``gather``
an array (``wrap``'s may be its input), for ``cell_index`` an ``(i0, frac)``
pair (whose ``frac`` may be the positions).  So a caller that works block
by block, as ``kinetic.push`` does, keeps its temporaries in buffers it
owns.  To time the gather and the deposit per particle, run
``python3 perfbench/run.py --workload kinetic1d --trace 1``
(``kernels.*.ns_per_particle``).

``HAVE_NUMBA`` is always False.  It stays because the benchmark reads it
for its ``have_numba`` provenance field, and would fail to start without it.
"""
from __future__ import annotations

import numpy as np

from .grid import TWO_PI

# There is no numba path; perfbench/run.py reads this for its provenance.
HAVE_NUMBA = False


def wrap(a, out=None):
    """``a % TWO_PI``, bit for bit on finite input, written into ``out``
    (which may be ``a``) when given.

    On [-2*pi, 4*pi), where every push lands while dt*|xi| < 2*pi, one
    subtraction or addition of 2*pi is exact and equals the remainder: on
    [2*pi, 4*pi), a - 2*pi is exact (Sterbenz) and so is ``fmod``.  Other
    input takes ``fmod``.
    """
    if a.size:
        lo, hi = a.min(), a.max()
        if -TWO_PI <= lo and hi < 2.0 * TWO_PI:
            r = np.add(a, 0.0, out=out)  # -0.0 made +0.0 as with %
            if hi >= TWO_PI:
                np.subtract(r, TWO_PI, out=r, where=r >= TWO_PI)
            if lo < 0.0:
                np.add(r, TWO_PI, out=r, where=r < 0.0)  # -2*pi + 2*pi is +0.0
            return r
    r = np.fmod(a, TWO_PI, out=out)
    np.add(r, TWO_PI, out=r, where=r < 0.0)
    r += 0.0  # -0.0 (a negative multiple of 2*pi) becomes +0.0, as with %
    return r


def cell_index(x, dx, n_cells, out=None):
    """Cell ``i0`` (int64, in [0, n_cells)) and offset ``frac`` in [0, 1)
    of each position on the periodic grid of spacing ``dx``, written into
    the pair ``out`` when given (its ``frac`` may be ``x`` itself)."""
    i0, s = out if out is not None else (np.empty(x.shape, np.int64), None)
    s = np.divide(x, dx, out=s)
    fl = np.floor(s)
    np.subtract(s, fl, out=s)
    if fl.size and not (fl.min() >= 0.0 and fl.max() < n_cells):
        # a position at (or rounding to) 2*pi, or outside [0, 2*pi)
        if not np.all(np.isfinite(fl)):
            raise ValueError("particle positions must be finite")
        np.remainder(fl, n_cells, out=fl)
    np.copyto(i0, fl, casting="unsafe")
    return i0, s


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


def gather(values, i0, frac, out=None):
    """Linear interpolation of a periodic grid field at cell indices,
    written into ``out`` when given: ``v[i0] * (1 - frac) + v[i0 + 1] * frac``
    term by term, with indices taken modulo the period (``take``'s "wrap"
    mode, which, unlike its default, fills ``out`` without a buffer)."""
    left = values.take(i0, out=out, mode="wrap")
    right = np.subtract(1.0, frac)
    left *= right
    np.concatenate((values[1:], values[:1])).take(i0, out=right, mode="wrap")
    right *= frac
    left += right
    return left
