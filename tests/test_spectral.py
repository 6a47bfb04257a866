"""Property tests of the real-FFT spectral layer against plain complex
np.fft.fftn references on full grids, odd sizes included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdpa.fields import GridField, periodic_convolve
from torusdpa.kernels import KernelTable
from torusdpa.spectral import (
    forward_transform,
    gradient,
    inner,
    inverse_transform,
    k_squared,
)

grids = st.tuples(st.sampled_from([1, 2]), st.integers(3, 64), st.integers(0, 2**32 - 1))
PROPERTY = settings(max_examples=60, deadline=None)


def draw(d, n, seed, count=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n,) * d) for _ in range(count)]


def full_lattice(n, d):
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.meshgrid(*([k] * d), indexing="ij")


def close(got, want, scale=1.0):
    assert np.max(np.abs(got - want)) <= 1e-12 * scale * (1.0 + np.max(np.abs(want)))


@PROPERTY
@given(grids)
def test_forward_is_half_of_complex_transform(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    full = np.fft.fftn(f) / n**d
    half = forward_transform(f)
    assert half.shape == (n,) * (d - 1) + (n // 2 + 1,)
    close(half, full[..., : n // 2 + 1])


@PROPERTY
@given(grids)
def test_round_trip(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    close(inverse_transform(forward_transform(f), n), f)


@PROPERTY
@given(grids)
def test_convolution(grid):
    d, n, seed = grid
    f, g = draw(d, n, seed, 2)
    want = np.real(np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(g))) / n**d
    close(periodic_convolve(GridField(f), KernelTable(g)).values, want)


@PROPERTY
@given(grids)
def test_gradient_with_nyquist_zeroed(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    fhat = np.fft.fftn(f)
    got = gradient(forward_transform(f), n)
    for k, g in zip(full_lattice(n, d), got):
        mult = np.where(np.abs(k) == n / 2, 0.0, 2j * np.pi * k)
        close(g, np.real(np.fft.ifftn(mult * fhat)), scale=n)


@PROPERTY
@given(grids)
def test_laplacian(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    k2 = sum((2.0 * np.pi * k) ** 2 for k in full_lattice(n, d))
    want = np.real(np.fft.ifftn(-k2 * np.fft.fftn(f)))
    close(inverse_transform(-k_squared(n, d) * forward_transform(f), n), want, scale=n * n)


@PROPERTY
@given(grids)
def test_parseval(grid):
    d, n, seed = grid
    f, g = draw(d, n, seed, 2)
    want = float((f * g).sum()) / n**d
    got = inner(forward_transform(f), forward_transform(g), n)
    assert got == pytest.approx(want, abs=1e-12 * (1.0 + np.sqrt((f * f).sum() * (g * g).sum())))
