"""Hot particle kernels: cloud-in-cell deposition and linear gather.

These inner loops dominate the particle-solver runtime, so they are
compiled with numba when it is available.  numba is optional (the ``jit``
extra).  The path is chosen once, at import:

* ``HAVE_NUMBA`` is true exactly when ``numba`` imports and the environment
  variable ``SIM_NUMBA`` is not ``"0"``; ``SIM_NUMBA=0`` always forces the
  pure-numpy fallback.
* The module-level names ``deposit_moments`` and ``gather`` then point at
  the JIT kernels (``deposit_moments_numba``, ``gather_numba``), and
  otherwise at the numpy ones (``deposit_moments_numpy``, ``gather_numpy``).

The numpy kernels are always defined, for testing.  To time the selected
path per particle, run ``python3 perfbench/run.py --workload kinetic1d
--trace 1`` (``kernels.*.ns_per_particle``); prefix ``SIM_NUMBA=0`` to time
the numpy path.
"""
from __future__ import annotations

import os

import numpy as np

TWO_PI = 2.0 * np.pi

_want_numba = os.environ.get("SIM_NUMBA", "1") != "0"
try:
    if _want_numba:
        from numba import njit
    else:  # pragma: no cover - exercised via subprocess in tests
        njit = None
except ImportError:  # pragma: no cover
    njit = None

HAVE_NUMBA = njit is not None


def deposit_moments_numpy(x, xi, w, n_cells, dx):
    """CIC deposition of the first four velocity moments.

    Returns (s0, s1, s2, s3) with s_k[g] = sum_i w_i xi_i^k W_g(x_i); the
    linear kernel telescopes, so sum(s0) == sum(w) exactly.
    """
    s = x / dx
    i0 = np.floor(s).astype(np.int64) % n_cells
    frac = s - np.floor(s)
    i1 = (i0 + 1) % n_cells
    out = []
    xik = np.ones_like(xi)
    for _ in range(4):
        acc = np.zeros(n_cells)
        np.add.at(acc, i0, w * xik * (1.0 - frac))
        np.add.at(acc, i1, w * xik * frac)
        out.append(acc)
        xik = xik * xi
    return tuple(out)


def gather_numpy(values, x, dx):
    """Linear interpolation of a periodic grid field to particle positions."""
    n_cells = values.shape[0]
    s = x / dx
    i0 = np.floor(s).astype(np.int64) % n_cells
    frac = s - np.floor(s)
    i1 = (i0 + 1) % n_cells
    return values[i0] * (1.0 - frac) + values[i1] * frac


if HAVE_NUMBA:

    @njit(cache=True)
    def deposit_moments_numba(x, xi, w, n_cells, dx):  # pragma: no cover - jit
        s0 = np.zeros(n_cells)
        s1 = np.zeros(n_cells)
        s2 = np.zeros(n_cells)
        s3 = np.zeros(n_cells)
        for p in range(x.shape[0]):
            s = x[p] / dx
            i0 = int(np.floor(s))
            frac = s - np.floor(s)
            i0 = i0 % n_cells
            i1 = (i0 + 1) % n_cells
            wl = w[p] * (1.0 - frac)
            wr = w[p] * frac
            v = xi[p]
            v2 = v * v
            v3 = v2 * v
            s0[i0] += wl
            s0[i1] += wr
            s1[i0] += wl * v
            s1[i1] += wr * v
            s2[i0] += wl * v2
            s2[i1] += wr * v2
            s3[i0] += wl * v3
            s3[i1] += wr * v3
        return s0, s1, s2, s3

    @njit(cache=True)
    def gather_numba(values, x, dx):  # pragma: no cover - jit
        n_cells = values.shape[0]
        out = np.empty(x.shape[0])
        for p in range(x.shape[0]):
            s = x[p] / dx
            i0 = int(np.floor(s))
            frac = s - np.floor(s)
            i0 = i0 % n_cells
            i1 = (i0 + 1) % n_cells
            out[p] = values[i0] * (1.0 - frac) + values[i1] * frac
        return out

    deposit_moments = deposit_moments_numba
    gather = gather_numba
else:
    deposit_moments = deposit_moments_numpy
    gather = gather_numpy
