"""Uniform periodic grid and FFT-based differential operators.

The domain is the torus [0, 2*pi)^dim sampled on a uniform grid, so
wavenumbers are integers, the lowest nonzero wavenumber is 1, and the
Poincare constant for mean-zero fields is exactly 1.  Scalar fields are
float arrays of shape ``grid.shape``; vector fields (and any stack of
scalars) carry extra leading axes.

Every field is real, so the transforms are real-to-complex: a spectrum
is the half spectrum of ``rfftn`` (the last axis holds k >= 0 only), and
the Fourier symbols are built once on it.  Both transforms accept a stack
of fields with leading axes, so a caller transforms everything it needs
in one call each way.  They are numpy's bit for bit: its pocketfft kernels
in ``rfftn``'s and ``irfftn``'s passes, without ``numpy.fft``'s wrapper.  A
caller that reads the rows of a stack from some index on only through the
2/3 rule marks them as band rows; the forward transform then skips the
lines that never reach the dealiasing box and zeroes the columns past it.

All operations are pure: input arrays are never mutated.  Fields may be
shared freely across threads for reading.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath as pocketfft

TWO_PI = 2.0 * np.pi
# sup of ||bogovskii(f)||_H1 / ||f||_L2: the lift scales mode k by 1/|k|, so
# the squared ratio is sum (1 + |k|^-2) |f_k|^2 / sum |f_k|^2 <= 2, equal on
# |k| = 1.  Derivatives zero the Nyquist modes, so |k| >= 1 on every mode kept.
BOGOVSKII_CONSTANT = float(np.sqrt(2.0))


class SpectralError(ValueError):
    """Base class for errors raised by grid operations."""


class MeanNotZero(SpectralError):
    """Source passed to a mean-zero elliptic solve has a nonzero mean."""


class Norms(NamedTuple):
    l2: float
    h1: float
    linf_grid: float


class Grid:
    """Uniform grid on [0, 2*pi)^dim with Fourier symbols cached on the half spectrum.

    Nyquist modes are zeroed in every differential operator (the odd
    derivative of the Nyquist mode is not representable on the grid), and
    the mean-zero Poisson solve inverts only the modes the derivative
    operators act on, so div(grad(.)), laplacian(.) and the elliptic solve
    are mutually consistent to round-off.
    """

    def __init__(self, dim: int, points_per_axis: int):
        if dim not in (1, 2, 3):
            raise SpectralError(f"dim must be 1, 2 or 3, got {dim}")
        if not float(points_per_axis).is_integer():
            raise SpectralError(f"points_per_axis must be an integer, got {points_per_axis!r}")
        n = int(points_per_axis)
        if n < 8 or n % 2 != 0:
            raise SpectralError(
                f"points_per_axis must be even and >= 8, got {points_per_axis}"
            )
        self.dim = dim
        self.n = n
        self.dx = TWO_PI / n
        self.shape = (n,) * dim
        self.volume = TWO_PI**dim

        self._axes = tuple(range(-dim, 0))
        self._half_shape = self.shape[:-1] + (n // 2 + 1,)

        def along(axis: int, arr: np.ndarray) -> np.ndarray:
            shape = [1] * dim
            shape[axis] = arr.size
            return arr.reshape(shape)

        # integer wavenumbers as floats; the last axis holds k >= 0 only
        k = [np.fft.fftfreq(n, d=1.0 / n)] * (dim - 1) + [np.fft.rfftfreq(n, d=1.0 / n)]
        self._k = [along(a, k[a]) for a in range(dim)]
        # Nyquist (index n // 2 on every axis) removed from derivatives
        k_deriv = [np.where(np.arange(k[a].size) == n // 2, 0.0, k[a]) for a in range(dim)]
        self._ik = [1j * along(a, k_deriv[a]) for a in range(dim)]
        self._k2 = sum(along(a, k_deriv[a]) ** 2 for a in range(dim))
        # -1/|k|^2 on the modes the derivatives act on, 0 elsewhere
        self._inv_neg_k2 = np.where(
            self._k2 > 0.0, -1.0 / np.where(self._k2 > 0.0, self._k2, 1.0), 0.0
        )
        # Parseval weights: the columns k_last = 0 and n/2 are their own
        # conjugate twins; every other column of the half spectrum stands
        # for itself and its twin.  Each weight is repeated for the real and
        # the imaginary part of its mode.
        weight = np.full(n // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        self._parseval = np.repeat(weight / float(n**dim) ** 2, 2)
        grid_axes = "ijk"[-dim:]
        self._inner_subscripts = f"...{grid_axes},...{grid_axes},{grid_axes[-1]}->..."
        self._dealias_keep = self._box(n / 3.0)
        # derivative with the 2/3-rule truncation folded in (diagonal ops commute)
        self._ik_dealias = [ik * self._dealias_keep for ik in self._ik]
        # tables other modules derive from these symbols, built at first use
        self._derived: dict = {}

    def _box(self, kmax: float) -> np.ndarray:
        """Half-spectrum mask of the modes with every |k_axis| <= kmax."""
        keep = np.ones((), dtype=bool)
        for k in self._k:
            keep = keep & (np.abs(k) <= kmax)
        return keep

    # -- basic geometry -------------------------------------------------

    def coords(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays (ij indexing), one per axis."""
        x = np.arange(self.n) * self.dx
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def zeros_vector(self) -> np.ndarray:
        return np.zeros((self.dim,) + self.shape)

    def integral(self, f: np.ndarray) -> float:
        return float(np.mean(f)) * self.volume

    # -- transforms -----------------------------------------------------

    def _fft(self, f: np.ndarray, band: int | None = None) -> np.ndarray:
        """Half spectrum of a real field or of a stack with leading axes.

        Rows ``band:`` of a stack (along its first axis) are for callers
        that read them only through the 2/3 rule: in 2-D and 3-D they equal
        the full transform on the modes of the dealiasing box and are zero
        on the columns beyond it.
        """
        out = np.empty(f.shape[:-1] + (self.n // 2 + 1,), dtype=complex)
        pocketfft.rfft_n_even(f, 1.0, out=out)
        if self.dim == 1:
            return out
        blocks = [out]
        if band is not None:
            cut = self.n // 3 + 1
            blocks = [out[:band], out[band:, ..., :cut]]
            out[band:, ..., cut:] = 0.0
        for axis in self._axes[-2::-1]:
            for block in blocks:
                pocketfft.fft(block, 1.0, axes=[(axis,), (), (axis,)], out=block)
        return out

    def _ifft(self, fhat: np.ndarray) -> np.ndarray:
        """Real field(s) from half spectra; the inverse of _fft."""
        out = np.empty(fhat.shape[:-1] + (self.n,))
        if self.dim == 1:
            return pocketfft.irfft(fhat, 1.0 / self.n, out=out)
        # irfftn's passes in its order, each scaled by 1/n, in place on a copy:
        # of the stack in 2-D, of each field in 3-D (a stacked copy raised peak RSS)
        for i in np.ndindex(fhat.shape[:-3]) if self.dim == 3 else [()]:
            c = fhat[i].astype(complex)
            for axis in self._axes[:-1]:
                pocketfft.ifft(c, 1.0 / self.n, axes=[(axis,), (), (axis,)], out=c)
            pocketfft.irfft(c, 1.0 / self.n, out=out[i])
            del c  # before the next field's copy
        return out

    def inner(self, fhat: np.ndarray, ghat: np.ndarray) -> np.ndarray:
        """mean(f * g) of real fields, read from their half spectra (Parseval).

        Sums over the grid axes only, so stacks give one mean per field;
        leading axes broadcast.  Re(conj(f_k) g_k) is summed over the real
        and imaginary parts of each mode, read as pairs of floats, so both
        spectra must be contiguous along their last axis.
        """
        f, g = fhat.view(float), ghat.view(float)
        return np.einsum(self._inner_subscripts, f, g, self._parseval)

    # -- differential operators ------------------------------------------

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Gradient of a field, or of each field of a stack.

        Maps ``lead + shape`` to ``lead + (dim,) + shape`` in one forward
        and one inverse transform call.
        """
        fhat = self._fft(f)
        out = np.empty(fhat.shape[: -self.dim] + (self.dim,) + self._half_shape, dtype=complex)
        grid_axes = (slice(None),) * self.dim
        for a, ik in enumerate(self._ik):
            np.multiply(fhat, ik, out=out[(Ellipsis, a) + grid_axes])
        return self._ifft(out)

    def divergence(self, v: np.ndarray) -> np.ndarray:
        vhat = self._fft(v)
        return self._ifft(sum(self._ik[a] * vhat[a] for a in range(self.dim)))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self._ifft(self._fft(f) * (-self._k2))

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """2/3-rule truncation: zero modes with any |k_axis| > n/3."""
        return self._ifft(self._fft(f) * self._dealias_keep)

    # -- elliptic solves --------------------------------------------------

    @staticmethod
    def _check_mean_zero(f: np.ndarray) -> None:
        """Raise MeanNotZero unless |mean(f)| <= 1e-10 * rms(f): a larger mean
        signals that the caller passed a source outside the operator's range."""
        rms = float(np.sqrt(np.mean(f * f)))
        if abs(float(np.mean(f))) > 1e-10 * rms:
            raise MeanNotZero(f"source mean {np.mean(f):.3e} exceeds 1e-10 * rms {rms:.3e}")

    def poisson_mean_zero(self, f: np.ndarray) -> np.ndarray:
        """Solve laplacian(phi) = f - mean(f) with mean(phi) = 0."""
        self._check_mean_zero(f)
        return self._ifft(self._fft(f) * self._inv_neg_k2)

    def bogovskii(self, f: np.ndarray) -> np.ndarray:
        """Vector field with divergence f - mean(f), realized as grad(phi)
        with laplacian(phi) = f - mean(f), in one transform call each way:
        mode k of axis a is i k_a * (-1/|k|^2) * f_k."""
        self._check_mean_zero(f)
        phi = self._fft(f) * self._inv_neg_k2
        return self._ifft(np.stack([ik * phi for ik in self._ik]))

    # -- norms ------------------------------------------------------------

    def norms(self, f: np.ndarray) -> Norms:
        """L2 and H1 norms (quadrature == Parseval) and the grid max.

        Accepts a scalar field or a stack of components; components of a
        stack are summed in quadrature, and linf_grid is the grid max of
        the euclidean magnitude.
        """
        comps = f.reshape((-1,) + self.shape)
        l2sq = sum(self.integral(c * c) for c in comps)
        gradsq = 0.0
        for g in self.gradient(comps):
            gradsq += sum(self.integral(c * c) for c in g)
        linf = float(np.max(np.sqrt(np.sum(comps * comps, axis=0))))
        return Norms(float(np.sqrt(l2sq)), float(np.sqrt(l2sq + gradsq)), linf)


def random_band_limited(
    grid: Grid, rng: np.random.Generator, kmax: int | None = None
) -> np.ndarray:
    """Random mean-zero real field supported on modes with every |k_axis| <= kmax.

    Defaults to the dealias cutoff so products of two such fields stay
    representable.  Used by the property suites and ``validate``'s spectral suite.
    """
    if kmax is None:
        kmax = grid.n // 3
    white = rng.standard_normal(grid.shape)
    f = grid._ifft(grid._fft(white) * grid._box(kmax))
    f = f - np.mean(f)
    scale = float(np.max(np.abs(f)))
    return f / scale if scale > 0 else f
