"""Spectral operator tests: closed-form oracles and property loops."""
import tracemalloc

import numpy as np
import pytest

from dragflow.grid import (
    BOGOVSKII_CONSTANT,
    Grid,
    MeanNotZero,
    SpectralError,
    random_band_limited,
)

TWO_PI = 2.0 * np.pi


def test_grid_validation():
    with pytest.raises(SpectralError):
        Grid(0, 64)
    with pytest.raises(SpectralError):
        Grid(4, 64)
    with pytest.raises(SpectralError):
        Grid(1, 6)
    with pytest.raises(SpectralError):
        Grid(1, 63)
    g = Grid(2, 16)
    assert g.shape == (16, 16)
    assert g.dx == pytest.approx(TWO_PI / 16)
    assert g.volume == pytest.approx(TWO_PI**2)


def test_grid_refuses_a_non_integral_size():
    with pytest.raises(SpectralError, match="points_per_axis must be an integer, got 64.5"):
        Grid(1, 64.5)
    assert Grid(1, 64.0).n == 64
    assert Grid(1, np.int64(64)).n == 64


def test_laplacian_eigenfunction():
    g = Grid(1, 64)
    x = g.coords()[0]
    assert np.max(np.abs(g.laplacian(np.sin(x)) + np.sin(x))) < 1e-12


def test_divergence_of_constant_vector():
    g = Grid(2, 16)
    v = np.ones((2,) + g.shape)
    assert np.max(np.abs(g.divergence(v))) < 1e-14


def test_ddx_single_mode():
    g = Grid(1, 64)
    x = g.coords()[0]
    df = g.gradient(np.sin(x))[0]
    assert np.max(np.abs(df - np.cos(x))) < 1e-13


def test_ddx_constant_is_zero():
    g = Grid(1, 32)
    df = g.gradient(np.full(g.shape, 3.7))[0]
    assert np.max(np.abs(df)) < 1e-14


def test_ddx_mixed_mode_2d():
    # hand-differentiated: grad [sin(3x) cos(2y)]
    g = Grid(2, 32)
    x, y = g.coords()
    grad = g.gradient(np.sin(3 * x) * np.cos(2 * y))
    assert grad.shape == (2,) + g.shape
    assert np.max(np.abs(grad[0] - 3.0 * np.cos(3 * x) * np.cos(2 * y))) < 1e-12
    assert np.max(np.abs(grad[1] + 2.0 * np.sin(3 * x) * np.sin(2 * y))) < 1e-12


def test_gradient_separable_modes():
    g = Grid(2, 32)
    x, y = g.coords()
    grad = g.gradient(np.cos(x) + np.cos(y))
    assert np.max(np.abs(grad[0] + np.sin(x))) < 1e-12
    assert np.max(np.abs(grad[1] + np.sin(y))) < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_div_grad_equals_laplacian(dim, n):
    g = Grid(dim, n)
    f = random_band_limited(g, np.random.default_rng(7))
    lhs = g.divergence(g.gradient(f))
    rhs = g.laplacian(f)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_real_transform_roundtrips_a_stack(dim, n):
    # the stack goes through the pass-by-pass forward and inverse paths,
    # the inverse field by field in 3-D
    g = Grid(dim, n)
    f = np.random.default_rng(dim).standard_normal((3,) + g.shape)
    fhat = g._fft(f)
    assert fhat.shape == (3,) + g.shape[:-1] + (n // 2 + 1,)
    assert np.max(np.abs(g._ifft(fhat) - f)) < 1e-14 * np.max(np.abs(f))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [12, 16, 24, 32])
def test_band_rows_equal_rfftn_on_the_dealiasing_box(dim, n):
    # multiples of 3 put k = n/3 on the edge of the box
    g = Grid(dim, n)
    f = np.random.default_rng(n + dim).standard_normal((5,) + g.shape)
    want = np.fft.rfftn(f, axes=tuple(range(-dim, 0)))
    keep = np.broadcast_to(g._dealias_keep, want.shape[1:])
    for band in (None, 0, 2, 5):
        got = g._fft(f, band)
        assert got.shape == want.shape
        full = len(f) if band is None else band
        assert got[:full].tobytes() == want[:full].tobytes()
        assert got[full:][:, keep].tobytes() == want[full:][:, keep].tobytes()
        assert not np.any(got[full:, ..., n // 3 + 1 :])
    assert g._fft(f[0]).tobytes() == want[0].tobytes()
    assert np.max(np.abs(g._ifft(g._fft(f)) - f)) < 1e-14 * np.max(np.abs(f))


def test_band_leaves_the_1d_transform_as_it_is():
    g = Grid(1, 24)
    f = np.random.default_rng(1).standard_normal((5,) + g.shape)
    assert g._fft(f, 2).tobytes() == np.fft.rfft(f).tobytes()


def test_stacked_transform_allocates_only_its_output():
    # numpy reports its buffers to tracemalloc: a temporary per pass shows
    g = Grid(3, 32)
    f = np.random.default_rng(2).standard_normal((25,) + g.shape)
    g._fft(f[:2], 1)  # the first call builds the transform plans
    tracemalloc.start()
    try:
        out = g._fft(f, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * out.nbytes


def test_stacked_inverse_allocates_its_output_and_one_fields_spectra():
    # in 3-D the inverse copies one field at a time: a copy of the whole
    # stack raised the peak RSS of a 3-D run by 2 MB
    g = Grid(3, 32)
    rng = np.random.default_rng(3)
    fhat = g._fft(rng.standard_normal((8,) + g.shape))
    g._ifft(fhat[:2])  # the first call builds the transform plans
    tracemalloc.start()
    try:
        out = g._ifft(fhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * (out.nbytes + fhat[0].nbytes)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_transforms_equal_numpys_public_ones_bit_for_bit(dim, n, lead):
    # Grid calls numpy's private pocketfft kernels; a numpy release whose
    # kernels drift from numpy.fft fails here
    g = Grid(dim, n)
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(10 * dim + len(lead))
    f = rng.standard_normal(lead + g.shape)
    want = np.fft.rfft(f) if dim == 1 else np.fft.rfftn(f, axes=axes)
    assert g._fft(f).tobytes() == want.tobytes()
    if lead and dim > 1:
        got = g._fft(f, 1)
        keep = np.broadcast_to(g._dealias_keep, want.shape[1:])
        assert got[:1].tobytes() == want[:1].tobytes()
        assert got[1:][:, keep].tobytes() == want[1:][:, keep].tobytes()
    # any half spectrum, not only one of a real field
    fhat = rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)
    before = fhat.tobytes()
    if dim == 1:
        want = np.fft.irfft(fhat, n=n)
    else:
        want = np.fft.irfftn(fhat, s=g.shape, axes=axes)
    assert g._ifft(fhat).tobytes() == want.tobytes()
    assert fhat.tobytes() == before


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_gradient_of_a_stack_matches_each_field(dim, n):
    g = Grid(dim, n)
    rng = np.random.default_rng(4)
    f = np.stack([random_band_limited(g, rng) for _ in range(2)])
    grad = g.gradient(f)
    assert grad.shape == (2, dim) + g.shape
    for i in range(2):
        assert np.max(np.abs(grad[i] - g.gradient(f[i]))) < 1e-14


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("kmax", [None, 3])
def test_random_band_limited_has_no_energy_beyond_kmax(dim, n, kmax):
    g = Grid(dim, n)
    f = random_band_limited(g, np.random.default_rng(13), kmax=kmax)
    fhat = np.fft.fftn(f)  # full complex spectrum, independent of the grid's symbols
    k = np.fft.fftfreq(n, d=1.0 / n)
    beyond = np.zeros(g.shape, dtype=bool)
    for a in range(dim):
        shape = [1] * dim
        shape[a] = n
        beyond = beyond | (np.abs(k.reshape(shape)) > (n // 3 if kmax is None else kmax))
    assert np.max(np.abs(fhat[beyond])) < 1e-13 * np.max(np.abs(fhat))


def test_dealias_fixes_band_limited():
    g = Grid(1, 64)
    f = random_band_limited(g, np.random.default_rng(3))  # modes <= n/3
    assert np.max(np.abs(g.dealias(f) - f)) < 1e-13


def test_dealias_kills_high_mode():
    for n in (8, 16, 64):
        g = Grid(1, n)
        x = g.coords()[0]
        f = np.cos((n // 2 - 1) * x)
        assert np.max(np.abs(g.dealias(f))) < 1e-13


def test_dealias_idempotent_and_contractive():
    g = Grid(2, 24)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(g.shape)
    once = g.dealias(f)
    assert np.max(np.abs(g.dealias(once) - once)) < 1e-13
    assert g.norms(once).l2 <= g.norms(f).l2 * (1 + 1e-12)


def test_poisson_single_mode():
    g = Grid(1, 64)
    x = g.coords()[0]
    phi = g.poisson_mean_zero(np.cos(x))
    assert np.max(np.abs(phi + np.cos(x))) < 1e-13


def test_poisson_zero():
    g = Grid(1, 16)
    assert np.max(np.abs(g.poisson_mean_zero(g.zeros()))) == 0.0


def test_poisson_two_modes_2d():
    # per-mode division by -|k|^2: cos(2x) -> -cos(2x)/4, cos(y) -> -cos(y)
    g = Grid(2, 32)
    x, y = g.coords()
    phi = g.poisson_mean_zero(np.cos(2 * x) + np.cos(y))
    expected = -np.cos(2 * x) / 4.0 - np.cos(y)
    assert np.max(np.abs(phi - expected)) < 1e-12


def test_poisson_rejects_nonzero_mean():
    g = Grid(1, 32)
    x = g.coords()[0]
    with pytest.raises(MeanNotZero):
        g.poisson_mean_zero(1.0 + np.cos(x))


def test_bogovskii_single_mode():
    g = Grid(2, 32)
    x, _ = g.coords()
    b = g.bogovskii(np.cos(x))
    assert np.max(np.abs(b[0] - np.sin(x))) < 1e-12
    assert np.max(np.abs(b[1])) < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
def test_bogovskii_makes_one_transform_call_each_way(dim, n):
    g = Grid(dim, n)
    calls = []

    def counted(name, transform):
        def wrapper(f):
            calls.append((name, f.shape[:-dim]))
            return transform(f)
        return wrapper

    f = random_band_limited(g, np.random.default_rng(dim))
    want = g.gradient(g.poisson_mean_zero(f))
    g._fft = counted("forward", g._fft)
    g._ifft = counted("inverse", g._ifft)
    got = g.bogovskii(f)
    # the scalar source in, the dim components of the lift out
    assert calls == [("forward", ()), ("inverse", (dim,))]
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def test_bogovskii_zero():
    g = Grid(1, 16)
    assert np.max(np.abs(g.bogovskii(g.zeros()))) == 0.0


def test_bogovskii_l2_ratio_on_single_mode():
    # f = div(g) with g = (sin x, 0): the lift returns g itself, ratio 1
    g = Grid(2, 32)
    x, _ = g.coords()
    vec = np.stack([np.sin(x), np.zeros(g.shape)])
    f = g.divergence(vec)
    b = g.bogovskii(f)
    ratio = g.norms(b).l2 / g.norms(vec).l2
    assert ratio <= 1.0 + 1e-8


def test_norms_closed_forms():
    g = Grid(1, 64)
    x = g.coords()[0]
    n_sin = g.norms(np.sin(x))
    assert n_sin.l2 == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    assert n_sin.h1 == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)
    assert n_sin.linf_grid == pytest.approx(1.0, rel=1e-12)
    n_const = g.norms(np.full(g.shape, -2.5))
    assert n_const.l2 == pytest.approx(2.5 * np.sqrt(TWO_PI), rel=1e-12)


def test_parseval():
    g = Grid(2, 24)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.shape)
    phys = g.norms(f).l2
    fhat = np.fft.fftn(f) / f.size
    spec = np.sqrt(np.sum(np.abs(fhat) ** 2) * g.volume)
    assert abs(phys - spec) / phys < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_poincare_on_random_fields(dim, n):
    g = Grid(dim, n)
    rng = np.random.default_rng(17)
    for _ in range(100):
        f = random_band_limited(g, rng)
        norms = g.norms(f)
        grad_l2 = np.sqrt(norms.h1**2 - norms.l2**2)
        assert norms.l2 <= grad_l2 * (1 + 1e-12)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_bogovskii_divergence_roundtrip(dim, n):
    # div(bogovskii(f)) and laplacian(poisson_mean_zero(f)) both give f back
    g = Grid(dim, n)
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = random_band_limited(g, rng)
        bound = 1e-10 * g.norms(f).l2
        assert g.norms(g.divergence(g.bogovskii(f)) - f).l2 <= bound
        assert g.norms(g.laplacian(g.poisson_mean_zero(f)) - f).l2 <= bound


def test_empirical_bogovskii_constant_is_sqrt2():
    # ||bogovskii(f)||_H1 / ||f||_L2 <= sqrt(2) on random band-limited
    # probes, and the lowest wavenumber cos x attains it, in every dimension
    assert BOGOVSKII_CONSTANT == np.sqrt(2.0)
    rng = np.random.default_rng(31)
    for dim, n in ((1, 64), (2, 32), (3, 16)):
        g = Grid(dim, n)

        def ratio(f):
            return g.norms(g.bogovskii(f)).h1 / g.norms(f).l2

        for _ in range(8):
            assert ratio(random_band_limited(g, rng)) <= BOGOVSKII_CONSTANT * (1.0 + 1e-12)
        assert ratio(np.cos(g.coords()[0])) == pytest.approx(BOGOVSKII_CONSTANT, rel=1e-14)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_inner_matches_the_grid_mean_of_products(dim, n, lead):
    # white noise fills the whole spectrum, the Nyquist columns included;
    # h shares part of f so that mean(f * h) is of the size of its terms
    g = Grid(dim, n)
    rng = np.random.default_rng(7 * dim + len(lead))
    f = rng.standard_normal(lead + g.shape)
    h = f + 0.5 * rng.standard_normal(lead + g.shape)
    fhat, hhat = g._fft(f), g._fft(h)
    assert np.all(np.abs(fhat[..., n // 2]) > 0.0)
    axes = tuple(range(-dim, 0))
    got = g.inner(fhat, hhat)
    assert np.shape(got) == lead
    np.testing.assert_allclose(got, np.mean(f * h, axis=axes), rtol=1e-13, atol=0.0)
    # leading axes broadcast: one field against every field of a stack
    first = (0,) * len(lead)
    want = np.mean(h[first] * f, axis=axes)
    np.testing.assert_allclose(g.inner(hhat[first], fhat), want, rtol=1e-13, atol=0.0)
