"""Shared periodic-grid machinery: the real-FFT spectral layer and cubic
interpolation.

Grid convention: n nodes per axis at x_j = j/n, j = 0..n-1, spacing h = 1/n,
representing cells centered at the nodes.

Spectral layer.  This is the only module that calls numpy's FFT, always as
``np.fft.<name>`` looked up at call time.  Every spectrum is stored in the
half-spectrum layout of ``np.fft.rfftn`` over all axes: shape
(n,) * (d - 1) + (n // 2 + 1,), with the full integer lattice in fftfreq
order on the leading axes and the nonnegative frequencies 0..n//2
(rfftfreq) on the last axis.  The other half follows from Hermitian
symmetry, f_hat(-k) = conj(f_hat(k)).  Coefficients approximate the
continuous Fourier transform on the unit torus, f_hat(k) = h^d * rfftn[k];
inverse_transform undoes that and takes the grid size, which the half
spectrum alone does not fix when n is odd.  Frequency arrays are sparse
(one axis each) and broadcast against a half spectrum.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "freq_lattice",
    "k_squared",
    "grad_multipliers",
    "face_grad_multipliers",
    "minimage_coords",
    "forward_transform",
    "inverse_transform",
    "gradient",
    "inner",
    "downsample_spectrum",
    "catmull_rom_prepare",
    "catmull_rom_apply",
    "TILE_POINTS",
]

# Interpolation points per tile of a batched Catmull-Rom evaluation (pair
# sums, kde): about 32k keeps each tile's stencil temporaries in cache.
TILE_POINTS = 32_768


def freq_lattice(n: int, d: int):
    """Integer frequencies of the half-spectrum lattice, one sparse array per
    axis: fftfreq on the leading axis, rfftfreq on the last."""
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    last = np.fft.rfftfreq(n, d=1.0 / n)
    if d == 1:
        return (last,)
    return (np.fft.fftfreq(n, d=1.0 / n)[:, None], last[None, :])


def k_squared(n: int, d: int) -> np.ndarray:
    """|2 pi k|^2 on the half-spectrum lattice: minus the Laplacian's multiplier."""
    return sum((2.0 * np.pi * k) ** 2 for k in freq_lattice(n, d))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def grad_multipliers(n: int, d: int) -> tuple:
    """2*pi*i*k multipliers per axis with the Nyquist mode zeroed (memoised,
    read-only, sparse)."""
    return tuple(_frozen(np.where(np.abs(k) == n / 2, 0.0, 2j * np.pi * k))
                 for k in freq_lattice(n, d))


@functools.lru_cache(maxsize=16)
def face_grad_multipliers(n: int, d: int) -> tuple:
    """grad_multipliers times the half-cell shift exp(i*pi*k/n) of each axis:
    the gradient sampled at the faces x + h/2 e_axis (Nyquist stays zero)."""
    return tuple(_frozen(g * np.exp(1j * np.pi * k / n))
                 for g, k in zip(grad_multipliers(n, d), freq_lattice(n, d)))


def minimage_coords(n: int, d: int):
    """Per-axis minimum-image coordinates of the grid nodes, in [-1/2, 1/2)."""
    x = np.arange(n) / n
    xi = np.where(x > 0.5, x - 1.0, x)
    if d == 1:
        return (xi,)
    if d == 2:
        X, Y = np.meshgrid(xi, xi, indexing="ij")
        return (X, Y)
    raise ValueError(f"unsupported dimension {d}")


def forward_transform(values: np.ndarray) -> np.ndarray:
    """Continuous-normalized half spectrum: h^d * rfftn(values)."""
    n = values.shape[0]
    return np.fft.rfftn(values) * (1.0 / n) ** values.ndim


def inverse_transform(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Values on the n^d grid of a half spectrum; inverse of forward_transform."""
    d = coeffs.ndim
    return np.fft.irfftn(coeffs, s=(n,) * d, axes=tuple(range(d))) * n**d


def gradient(coeffs: np.ndarray, n: int):
    """Gradient components on the n^d grid of a half spectrum (Nyquist zeroed)."""
    return [inverse_transform(m * coeffs, n) for m in grad_multipliers(n, coeffs.ndim)]


def inner(a_hat: np.ndarray, b_hat: np.ndarray, n: int) -> float:
    """Integral of f*g over the torus from the half spectra of two real grid
    functions on the n^d grid (Parseval): each last-axis column stands for
    itself and its mirror, except k = 0 and, for even n, k = n/2."""
    w = np.full(a_hat.shape[-1], 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return float((w * (a_hat * b_hat.conj()).real).sum())


def downsample_spectrum(spec: np.ndarray, n2: int) -> np.ndarray:
    """Crop a half spectrum of an even-n grid to the even n2 <= n."""
    n = 2 * (spec.shape[-1] - 1)
    if n2 > n:
        raise ValueError("downsample_spectrum: target finer than source")
    half = n2 // 2
    out = spec[..., : half + 1]
    if spec.ndim == 2:
        return out[np.r_[0:half, n - half : n]]
    return out.copy()


# -- Catmull-Rom interpolation on periodic grids -----------------------------


def _cr_weights(s: np.ndarray):
    # Horner forms of the four Catmull-Rom basis cubics
    w0 = s * (s * (1.0 - 0.5 * s) - 0.5)
    w1 = s * s * (1.5 * s - 2.5) + 1.0
    w2 = s * (0.5 + s * (2.0 - 1.5 * s))
    w3 = 0.5 * s * s * (s - 1.0)
    return (w0, w1, w2, w3)


def pad_table(table: np.ndarray) -> np.ndarray:
    """Wrap-pad a periodic table so stencil (i0-1 .. i0+2) never wraps."""
    if table.ndim == 1:
        return np.concatenate([table[-1:], table, table[:2]])
    padded = np.empty((table.shape[0] + 3, table.shape[1] + 3))
    padded[1:-2, 1:-2] = table
    padded[0, 1:-2] = table[-1]
    padded[-2, 1:-2] = table[0]
    padded[-1, 1:-2] = table[1]
    padded[:, 0] = padded[:, -3]
    padded[:, -2] = padded[:, 1]
    padded[:, -1] = padded[:, 2]
    return padded


def catmull_rom_prepare(points: np.ndarray, n: int, d: int):
    """Precompute stencil base indices and weights for a batch of points.

    points: (..., d) array of torus coordinates (wrapped internally).
    The result is consumed by catmull_rom_apply together with a wrap-padded
    table, so several tables on one grid share the stencil cost.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != d:
        raise ValueError(f"expected points with {d} components")
    base = []
    wts = []
    for ax in range(d):
        u = pts[..., ax]
        if np.any(u < 0.0) or np.any(u >= 1.0):
            u = np.mod(u, 1.0)
        u = u * n
        i0 = u.astype(np.int64)  # floor: u >= 0
        wts.append(_cr_weights(u - i0))
        base.append(i0)  # padded index of the leftmost stencil node
    return (d, n, base, wts)


def catmull_rom_apply(table: np.ndarray, prep, padded: np.ndarray = None) -> np.ndarray:
    """Interpolate one table at points prepared by catmull_rom_prepare."""
    d, n, base, wts = prep
    if padded is None:
        padded = pad_table(table)
    if d == 1:
        i0 = base[0]
        w = wts[0]
        out = w[0] * padded[i0]
        out += w[1] * padded[i0 + 1]
        out += w[2] * padded[i0 + 2]
        out += w[3] * padded[i0 + 3]
        return out
    stride = n + 3
    flat = padded.ravel()
    ix = base[0] * stride + base[1]
    wx, wy = wts
    out = None
    for a in range(4):
        row = wy[0] * flat.take(ix)
        row += wy[1] * flat.take(ix + 1)
        row += wy[2] * flat.take(ix + 2)
        row += wy[3] * flat.take(ix + 3)
        row *= wx[a]
        out = row if out is None else out + row
        if a < 3:
            ix = ix + stride
    return out
