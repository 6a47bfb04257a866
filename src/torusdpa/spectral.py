"""Shared periodic-grid machinery: the real-FFT spectral layer and cubic
B-spline interpolation.

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
    "spline_coefficients",
    "spline_prepare",
    "spline_values",
    "spline_gradient",
    "TILE_POINTS",
]

# Interpolation points per tile of a batched spline evaluation (pair sums,
# kde): about 32k keeps each tile's stencil temporaries in cache.
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


# -- cubic B-spline interpolation on periodic grids --------------------------


def spline_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients of the periodic cubic B-spline through a table, wrap-padded
    so the stencil (i0-1 .. i0+2) never wraps.  The exact prefilter divides
    the half spectrum by the spline's symbol prod_i (2 + cos(2 pi k_i/n))/3,
    which is at least 1/3, so the spline reproduces the table at the nodes."""
    n, d = values.shape[0], values.ndim
    symbol = 1.0
    for k in freq_lattice(n, d):
        symbol = symbol * ((2.0 + np.cos(2.0 * np.pi * k / n)) / 3.0)
    coeffs = inverse_transform(forward_transform(values) / symbol, n)
    return np.pad(coeffs, [(1, 2)] * d, mode="wrap")


def _spline_weights(s: np.ndarray, n: int, value: bool, slope: bool):
    """Weights of stencil nodes i0-1 .. i0+2 at cell fraction s: with value
    the cubic B-spline basis ((1-s)^3, 3s^3 - 6s^2 + 4, -3s^3 + 3s^2 + 3s + 1,
    s^3)/6, with slope its x-derivative n d/ds, each None otherwise.  Horner
    chains in s keep fewer temporaries alive than shared powers, and run faster."""
    w = dw = None
    if value:
        w = ((((-1.0 / 6.0) * s + 0.5) * s - 0.5) * s + 1.0 / 6.0,
             (0.5 * s - 1.0) * s * s + 2.0 / 3.0,
             ((-0.5 * s + 0.5) * s + 0.5) * s + 1.0 / 6.0,
             s * s * s * (1.0 / 6.0))
    if slope:
        hn = 0.5 * n
        dw = ((-hn * s + n) * s - hn, (1.5 * n * s - 2.0 * n) * s,
              (-1.5 * n * s + n) * s + hn, hn * s * s)
    return w, dw


def spline_prepare(points: np.ndarray, n: int, d: int, gradient: bool = False):
    """Stencil base indices and weights for a batch of points.

    points: (..., d) array of torus coordinates (wrapped internally).  The
    result is consumed by spline_values / spline_gradient together with
    spline_coefficients of a table, so several tables on one grid share the
    stencil cost; gradient=True also prepares the derivative weights.
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
        # a 1-d gradient reads no value weights
        wts.append(_spline_weights(u - i0, n, not gradient or d > 1, gradient))
        base.append(i0)  # padded index of the leftmost stencil node
    return (d, n, base, wts)


def _stencil(coeffs: np.ndarray, n: int, base, weight_sets) -> list:
    """For each weight set (one 4-tuple per axis), the sum over the 4^d
    stencil of the coefficients times the product of their axes' weights;
    each coefficient is gathered once for all the sets."""
    flat = coeffs.ravel()
    stride = n + 3
    ix = base[0] if len(base) == 1 else base[0] * stride + base[1]
    out = [None] * len(weight_sets)
    for a in range(4 ** (len(base) - 1)):
        row_ix = ix + a * stride if a else ix
        c = flat.take(row_ix)
        rows = [ws[-1][0] * c for ws in weight_sets]
        for b in (1, 2, 3):
            del c  # frees the last gather's buffer, still in cache, for the next
            c = flat.take(row_ix + b)
            for row, ws in zip(rows, weight_sets):
                row += ws[-1][b] * c
        for k, (row, ws) in enumerate(zip(rows, weight_sets)):
            if len(base) == 2:
                row *= ws[0][a]
            if out[k] is None:
                out[k] = row
            else:
                out[k] += row
    return out


def spline_values(coeffs: np.ndarray, prep) -> np.ndarray:
    """The spline with padded coefficients coeffs at points prepared by
    spline_prepare."""
    d, n, base, wts = prep
    return _stencil(coeffs, n, base, [[w for w, _ in wts]])[0]


def spline_gradient(coeffs: np.ndarray, prep) -> list:
    """Gradient components of the spline at points prepared by
    spline_prepare(..., gradient=True).  Component i takes the derivative
    weights on axis i and the value weights on the others, and one gather of
    the stencil coefficients serves every component."""
    d, n, base, wts = prep
    return _stencil(coeffs, n, base, [[dw if ax == i else w for ax, (w, dw) in enumerate(wts)]
                                      for i in range(d)])
