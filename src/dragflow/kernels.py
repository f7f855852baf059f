"""Hot particle kernels in cell coordinates: cell index, cell move,
position, linear gather, and cloud-in-cell deposition of the first
``count`` velocity moments.

A particle is at its cell ``i0`` and offset ``frac`` in it, the position
(i0 + frac) * dx.  ``cell_index`` gives a set of positions that pair, once;
``move`` gives the pair of points displaced from cells by a number of
cells, as a push makes them, with no position in between; ``position`` goes
back.  ``gather`` and ``deposit_moments`` read the pair.  All are numpy,
with one definition each.  ``move`` and ``gather`` write into ``out=``, so
a caller that works block by block, as ``kinetic.push`` does, keeps its
temporaries in buffers it owns.  To time the gather and the deposit per
particle, run
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

# about the particles per block of a push or a deposit: the temporaries are
# a block long, and a block's passes run while its operands are in cache
BLOCK = 32768


def cell_index(x, dx, n_cells):
    """Cell ``i0`` (int64, in [0, n_cells)) and offset ``frac`` in [0, 1)
    of each position on the periodic grid of spacing ``dx``."""
    s = x / dx
    fl = np.floor(s)
    s -= fl
    if fl.size and not (fl.min() >= 0.0 and fl.max() < n_cells):
        # a position at (or rounding to) 2*pi, or outside [0, 2*pi)
        if not np.all(np.isfinite(fl)):
            raise ValueError("particle positions must be finite")
        np.remainder(fl, n_cells, out=fl)
    return fl.astype(np.int64), s


def move(i0, t, n_cells, out):
    """Cell and offset of the points ``t`` cells right of the left ends of
    the cells ``i0`` (in [0, n_cells)): the cell i0 + floor(t) folded into
    [0, n_cells), as int64, written into ``out``, and the offset
    t - floor(t) in [0, 1], written over ``t`` (a t in [0, 1) is left as it
    is, so a -0.0 stays; a push never makes one).

    A push moves a particle a small part of a cell, so few points leave
    their cell: the cells are copied, and only the points with t outside
    [0, 1) are found and moved.  Their cells take the remainder of the float
    floor before the cast, exact at any distance that fits a double.
    """
    np.copyto(out, i0)
    inside = t >= 0.0
    inside &= t < 1.0
    k = np.flatnonzero(~inside)  # a nan is outside
    if k.size:
        fl = np.floor(t[k])
        if not np.all(np.isfinite(fl)):
            raise ValueError("particle positions must be finite")
        t[k] -= fl
        fl += i0[k]
        out[k] = np.remainder(fl, n_cells)
    return out, t


def position(i0, frac, dx):
    """The position (i0 + frac) * dx of each particle, folded into [0, 2*pi)."""
    x = np.add(i0, frac)
    x *= dx
    return np.remainder(x, TWO_PI, out=x)


def blocks(count):
    """Slices of round(count / BLOCK) blocks covering range(count), at least
    one when count > 0, of sizes that differ by less than their number: no
    short last block pays a whole block's call overhead."""
    size = max(1, -(-count // max(1, round(count / BLOCK))))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def deposit_moments(i0, frac, xi, w, n_cells, count):
    """CIC deposition of the first ``count`` velocity moments.

    Returns an array of shape (count, n_cells) with
    s[k, g] = sum_i w_i xi_i^k W_g(x_i); the linear kernel telescopes, so
    sum(s[0]) equals sum(w) to round-off.  A particle's right-hand share
    goes to the next cell, which is the left-hand deposit rolled by one.
    The particles go block by block (``blocks``), so the weights are a
    block long; each block's sums are added to the sums of the blocks
    before it.
    """
    sums = np.zeros((2, count, n_cells))  # the left- and right-hand shares
    for b in blocks(i0.size):
        i0_b, xi_b = i0[b], xi[b]
        left = w[b] * (1.0 - frac[b])
        right = w[b] * frac[b]
        for k in range(count):
            sums[0, k] += np.bincount(i0_b, left, n_cells)
            sums[1, k] += np.bincount(i0_b, right, n_cells)
            if k + 1 < count:
                left *= xi_b
                right *= xi_b
    return sums[0] + np.roll(sums[1], 1, axis=1)


def gather(values, i0, frac, out=None):
    """Linear interpolation of a periodic grid field at cell indices,
    written into ``out`` when given: the slope form
    ``v[i0] + frac * (v[i0 + 1] - v[i0])``, from a table of the slopes made
    once per call.  Indices are taken modulo the period (``take``'s "wrap"
    mode, which, unlike its default, fills ``out`` without a buffer)."""
    slope = np.concatenate((values[1:], values[:1]))
    slope -= values
    out = values.take(i0, out=out, mode="wrap")
    rise = slope.take(i0, mode="wrap")
    rise *= frac
    out += rise
    return out
