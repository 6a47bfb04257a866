"""Shared periodic-grid machinery: FFT conventions and cubic interpolation.

Grid convention: n nodes per axis at x_j = j/n, j = 0..n-1, spacing h = 1/n,
representing cells centered at the nodes.  The continuous Fourier transform
on the unit torus is approximated by  f_hat(k) = h^d * FFT(values)[k]  on the
integer frequency lattice, and synthesis is the inverse of that.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "freq_lattice",
    "minimage_coords",
    "forward_transform",
    "inverse_transform",
    "spectral_gradient",
    "grad_multipliers",
    "catmull_rom_prepare",
    "catmull_rom_apply",
    "TILE_POINTS",
]

# Interpolation points per tile of a batched Catmull-Rom evaluation (pair
# sums, kde): about 32k keeps each tile's stencil temporaries in cache.
TILE_POINTS = 32_768


def freq_lattice(n: int, d: int):
    """Integer frequency arrays (one per axis, meshgrid 'ij') for an n^d grid."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    if d == 1:
        return (k,)
    if d == 2:
        kx, ky = np.meshgrid(k, k, indexing="ij")
        return (kx, ky)
    raise ValueError(f"unsupported dimension {d}")


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
    """Continuous-normalized Fourier coefficients: h^d * FFT(values)."""
    n = values.shape[0]
    d = values.ndim
    return np.fft.fftn(values) * (1.0 / n) ** d


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of forward_transform; returns the real part."""
    n = coeffs.shape[0]
    d = coeffs.ndim
    return np.real(np.fft.ifftn(coeffs)) * n**d


def grad_multipliers(n: int, d: int):
    """2*pi*i*k multipliers per axis with the Nyquist mode zeroed."""
    ks = freq_lattice(n, d)
    mults = []
    for k in ks:
        m = 2j * np.pi * k
        if n % 2 == 0:
            m = np.where(np.abs(k) == n // 2, 0.0, m)
        mults.append(m)
    return mults


def spectral_gradient(values: np.ndarray):
    """Gradient of a periodic grid function via Fourier multipliers."""
    n = values.shape[0]
    d = values.ndim
    fhat = np.fft.fftn(values)
    return [np.real(np.fft.ifftn(m * fhat)) for m in grad_multipliers(n, d)]


def downsample_spectrum(spec: np.ndarray, n2: int) -> np.ndarray:
    """Crop Fourier coefficients to an n2-point grid (n2 <= n, both even)."""
    n = spec.shape[0]
    if n2 > n:
        raise ValueError("downsample_spectrum: target finer than source")
    if n2 == n:
        return spec.copy()
    half = n2 // 2
    if spec.ndim == 1:
        out = np.empty(n2, dtype=complex)
        out[:half] = spec[:half]
        out[half:] = spec[n - half :]
        return out
    out = np.empty((n2, n2), dtype=complex)
    rows = np.r_[0:half, n - half : n]
    return spec[np.ix_(rows, rows)]


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
