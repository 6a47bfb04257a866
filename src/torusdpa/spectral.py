"""Shared periodic-grid machinery: the real-FFT spectral layer and the
particle mesh that evaluates particle sums.

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
spectrum alone does not fix when n is odd.  A transform is one numpy call
per axis (d calls): rfft along the last axis, then fft along the first, and
back ifft, then irfft.  Both transforms take the last d axes, so a leading
axis stacks fields (or spectra) that one call per axis transforms together,
each bit for bit as on its own.  forward_transform can keep only the first
last-axis columns before its first-axis pass, and inverse_transform
zero-pads a spectrum cut there, for spectra that a mask or a box cuts.
Frequency arrays are sparse (one axis each) and broadcast against a half
spectrum.

Particle mesh.  Every particle sum is one spread of weighted particles onto a
grid, spectral multipliers, and a gather back at the particles, where the
gather is the exact transpose of the spread (same stencil, same weights).  Two
stencils serve it: the "exponential of semicircle" (ES) kernel of Barnett,
Magland & af Klinteberg (SISC 2019) on a grid upsampled twice, for sums with
a trigonometric-polynomial kernel (ParticleMesh), and the 4-point cubic
B-spline stencil on a table's own lattice, for sums of the cubic B-spline
through a kernel table (the kernel density estimate), whose spline
coefficients are the table's spectrum over the spline symbol.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "freq_lattice",
    "k_squared",
    "grad_multipliers",
    "face_grad_multipliers",
    "column_weights",
    "minimage_coords",
    "forward_transform",
    "inverse_transform",
    "gradient",
    "inner",
    "downsample_spectrum",
    "spline_symbol",
    "Stencil",
    "spline_stencil",
    "spread",
    "gather",
    "tail_cutoff",
    "ParticleMesh",
]

# The ES kernel exp(ES_BETA (sqrt(1 - z^2) - 1)) on |z| <= 1 spans ES_WIDTH
# fine-grid points per axis, and the fine grid has UPSAMPLING points per mode
# of the box |k|_inf <= K.  Barnett, Magland & af Klinteberg take
# ES_BETA = 2.30 ES_WIDTH at this upsampling, which keeps the aliasing error
# even over the box (5e-13 to 7e-12 relative at 13 points).  The particle
# multipliers fall by ten orders or more before the box edge, so the kernel
# is steeper: 2.5 ES_WIDTH cuts the error below |k| = K/2 under 1e-13 and
# lets it grow only near K, where the multipliers are negligible.
ES_WIDTH = 13
UPSAMPLING = 2
ES_BETA = 2.5 * ES_WIDTH
# A mesh keeps the smallest box whose dropped modes carry at most this share
# of the multiplier's absolute sum: TAIL_TOL in 2-d, TAIL_TOL_1D in 1-d.  A
# 1-d cut at 1e-11 or 1e-12 misses the dense-oracle bounds on the 1-d sums
# (energies to 1e-12, velocities to 1e-10); 1e-13 meets them and keeps 601 of
# the default 1-d pair potential's 2047 modes.
TAIL_TOL = 1e-11
TAIL_TOL_1D = 1e-13
# numpy's irfft takes out= from 2.0 on; before, inverse_transform copies
# the result into a given out
_IRFFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def freq_lattice(n: int, d: int):
    """Integer frequencies of the half-spectrum lattice, one sparse array per
    axis: fftfreq on the leading axis, rfftfreq on the last."""
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    lead = (np.fft.fftfreq(n, d=1.0 / n),) * (d - 1)
    return tuple(np.meshgrid(*lead, np.fft.rfftfreq(n, d=1.0 / n), indexing="ij", sparse=True))


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


@functools.lru_cache(maxsize=16)
def column_weights(n: int) -> np.ndarray:
    """Parseval weight of each last-axis column of the n^d half spectrum
    (memoised, read-only): 2 for a column that stands for itself and its
    mirror, 1 for k = 0 and, for even n, k = n/2."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return _frozen(w)


def minimage_coords(n: int, d: int):
    """Minimum-image coordinates of the grid nodes against the origin, in
    (-1/2, 1/2] (geometry.min_image), one sparse array per axis that
    broadcasts to the n^d grid, like freq_lattice."""
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    x = np.arange(n) / n
    xi = np.where(x > 0.5, x - 1.0, x)
    return tuple(np.meshgrid(*(xi,) * d, indexing="ij", sparse=True))


def forward_transform(values: np.ndarray, cols=None, d=None) -> np.ndarray:
    """Continuous-normalized half spectrum h^d * rfftn over the last d axes
    (d None: all of them), the factor h^d applied inside the FFT
    (norm="forward"), as one call per axis: rfft along the last axis, then
    in 2-d fft along the one before it.  A leading axis stacks fields, each
    transformed bit for bit as on its own.  cols keeps the first cols
    last-axis columns only, cut before the second pass, which then skips the
    others: forward_transform(values)[..., :cols], bit for bit."""
    spec = np.fft.rfft(values, axis=-1, norm="forward")[..., :cols]
    if (d or values.ndim) == 1:
        return spec
    return np.fft.fft(spec, axis=-2, norm="forward")


def inverse_transform(coeffs: np.ndarray, n: int, d=None, out=None) -> np.ndarray:
    """Values on the n^d grid of a half spectrum over the last d axes (d None:
    all of them); inverse of forward_transform (n^d * irfftn), as one
    unscaled call per axis: in 2-d ifft along the second-to-last axis, then
    irfft along the last, into out when given.  A leading axis stacks
    spectra, as in forward_transform.  A spectrum cut to its first last-axis
    columns is zero-padded by the irfft, bit for bit the transform of the
    padded spectrum."""
    if (d or coeffs.ndim) == 2:
        coeffs = np.fft.ifft(coeffs, axis=-2, norm="forward")
    if out is None:
        return np.fft.irfft(coeffs, n, axis=-1, norm="forward")
    if _IRFFT_OUT:
        return np.fft.irfft(coeffs, n, axis=-1, norm="forward", out=out)
    out[...] = np.fft.irfft(coeffs, n, axis=-1, norm="forward")
    return out


def gradient(coeffs: np.ndarray, n: int, mults=None) -> np.ndarray:
    """Gradient components (d, n^d) on the grid of a half spectrum, in one
    stacked inverse transform; mults are the per-axis multipliers
    (grad_multipliers, Nyquist zeroed, when None)."""
    d = coeffs.ndim
    mults = grad_multipliers(n, d) if mults is None else mults
    return inverse_transform(np.stack([m * coeffs for m in mults]), n, d)


def inner(a_hat: np.ndarray, b_hat: np.ndarray, n: int) -> float:
    """Integral of f*g over the torus from the half spectra of two real grid
    functions on the n^d grid (Parseval, each column by column_weights); two
    spectra cut to their first last-axis columns give the integral of their
    kept modes."""
    w = column_weights(n)[: a_hat.shape[-1]]
    return float((w * (a_hat * b_hat.conj()).real).sum())


def downsample_spectrum(spec: np.ndarray, n2: int) -> np.ndarray:
    """Crop a half spectrum of an even-n grid to the n2 <= n grid; for an odd
    n2 = 2K + 1 that is the box |k|_inf <= K."""
    n = 2 * (spec.shape[-1] - 1)
    if n2 > n:
        raise ValueError("downsample_spectrum: target finer than source")
    out = spec[..., : n2 // 2 + 1]
    if spec.ndim == 2:
        return out[np.r_[0 : (n2 + 1) // 2, n - n2 // 2 : n]]
    return out.copy()


# -- the cubic B-spline on periodic grids ------------------------------------


@functools.lru_cache(maxsize=8)
def spline_symbol(n: int, d: int) -> np.ndarray:
    """The cubic B-spline's symbol prod_i (2 + cos(2 pi k_i/n))/3 on the
    half-spectrum lattice, at least 3^-d (memoised, read-only)."""
    symbol = 1.0
    for k in freq_lattice(n, d):
        symbol = symbol * ((2.0 + np.cos(2.0 * np.pi * k / n)) / 3.0)
    return _frozen(np.asarray(symbol))


def _spline_weights(s: np.ndarray) -> np.ndarray:
    """Weights (N, 4) of stencil nodes i0-1 .. i0+2 at cell fractions s: the
    cubic B-spline basis ((1-s)^3, 3s^3 - 6s^2 + 4, -3s^3 + 3s^2 + 3s + 1,
    s^3)/6.  Horner chains in s keep fewer temporaries alive than shared
    powers, and run faster."""
    w = ((((-1.0 / 6.0) * s + 0.5) * s - 0.5) * s + 1.0 / 6.0,
         (0.5 * s - 1.0) * s * s + 2.0 / 3.0,
         ((-0.5 * s + 0.5) * s + 0.5) * s + 1.0 / 6.0,
         s * s * s * (1.0 / 6.0))
    return np.stack(w, axis=-1)


# -- particle mesh: spread, spectral multipliers, gather ---------------------


def _product(per_axis, combine):
    """Tensor product (..., N, w^d) of per-axis arrays, each (..., N, w):
    combine of every column pair, folded over the axes; in 1-d the array
    itself."""
    return functools.reduce(
        lambda a, b: combine(a[..., :, None], b[..., None, :]).reshape(*a.shape[:-1], -1),
        per_axis)


class Stencil:
    """The grid points each particle touches on the periodic n^d grid: flat
    indices and tensor-product weights, both (..., N, w^d), built from
    per-axis indices and weights, each (..., N, w).  Leading axes stack
    systems, each on its own grid: system b's flat indices are offset by
    b n^d into the systems' stacked grids."""

    def __init__(self, n: int, index, weight):
        self.n = n
        self.d = len(index)
        self.index = _product(index, lambda a, b: a * n + b)
        self.weight = _product(weight, np.multiply)


def _wrapped(points: np.ndarray, d: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != d:
        raise ValueError(f"expected points with {d} components")
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        pts = np.mod(pts, 1.0)
    return pts


def spline_stencil(points, n: int, d: int) -> Stencil:
    """Cubic B-spline stencil: nodes i0-1 .. i0+2 around each point with the
    basis weights, so a gather of spline coefficients is the spline, and a
    spread is the transpose."""
    pts = _wrapped(points, d)
    index, weight = [], []
    for ax in range(d):
        u = pts[:, ax] * n
        i0 = u.astype(np.int64)
        index.append((i0[:, None] + np.arange(-1, 3)) % n)
        weight.append(_spline_weights(u - i0))
    return Stencil(n, index, weight)


def _es_stencil(points: np.ndarray, n: int, d: int) -> Stencil:
    """ES stencil: the ES_WIDTH nodes l with |l/n - x| <= ES_WIDTH/(2n) on
    each axis, weighted by the kernel at z = 2(l - n x)/ES_WIDTH.  Points
    (..., N, d) stack systems; each system's first-axis indices are offset
    by b n before the tensor product, which offsets its flat indices by b n^d."""
    pts = _wrapped(points, d)
    offsets = np.arange(ES_WIDTH)
    index, weight = [], []
    for ax in range(d):
        u = pts[..., ax] * n
        lo = np.ceil(u - 0.5 * ES_WIDTH).astype(np.int64)
        z = ((lo - u)[..., None] + offsets) * (2.0 / ES_WIDTH)
        index.append((lo[..., None] + offsets) % n)
        weight.append(np.exp(ES_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0)))
    batch = pts.shape[:-2]
    index[0] += n * np.arange(math.prod(batch)).reshape(batch + (1, 1))
    return Stencil(n, index, weight)


@functools.lru_cache(maxsize=1)
def _es_quadrature() -> tuple:
    """Gauss-Legendre nodes z on [-1, 1] and the ES kernel times the weights
    at them (memoised, read-only)."""
    z, wq = np.polynomial.legendre.leggauss(4 * ES_WIDTH + 40)
    return _frozen(z), _frozen(np.exp(ES_BETA * (np.sqrt(1.0 - z * z) - 1.0)) * wq)


def _es_transform(n: int, K: int) -> np.ndarray:
    """Continuous Fourier transform at k = 0 .. K of the ES kernel spanning
    ES_WIDTH points of the n grid, by Gauss-Legendre quadrature on its support."""
    z, phi = _es_quadrature()
    half = 0.5 * ES_WIDTH / n
    return half * np.cos((2.0 * np.pi * half) * np.arange(K + 1)[:, None] * z) @ phi


def spread(stencil: Stencil, weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i times particle i's stencil weights, on the n^d grid of
    each system: weights (..., N) give grids (..., n, ..., n), in one
    bincount."""
    n, d, batch = stencil.n, stencil.d, stencil.index.shape[:-2]
    out = np.bincount(stencil.index.ravel(), (stencil.weight * weights[..., None]).ravel(),
                      minlength=math.prod(batch) * n**d)
    return out.reshape(batch + (n,) * d)


def gather(stencil: Stencil, grid: np.ndarray) -> np.ndarray:
    """Per particle, the grid values at its stencil times its stencil weights,
    summed: the exact transpose of spread, (..., N) from the systems' grids."""
    return np.einsum("...j,...j->...", grid.ravel().take(stencil.index), stencil.weight)


def tail_cutoff(spec: np.ndarray, n: int) -> int:
    """Cutoff K < n/2 of a half spectrum on the n^d lattice: the smallest K
    whose dropped modes |k|_inf > K carry at most TAIL_TOL (TAIL_TOL_1D in
    1-d) of the absolute sum, each last-axis column weighted by
    column_weights, as in inner."""
    d = spec.ndim
    top = (n - 1) // 2
    tol = TAIL_TOL_1D if d == 1 else TAIL_TOL
    kinf = functools.reduce(np.maximum, (np.abs(k).astype(np.int64) for k in freq_lattice(n, d)))
    shells = np.bincount(kinf.ravel(), (np.abs(spec) * column_weights(n)).ravel())
    tail = np.cumsum(shells[::-1])[::-1]  # tail[K] = sum over |k|_inf >= K
    kept = np.nonzero(tail[1 : top + 2] <= tol * tail[0])[0]
    return int(kept[0]) if kept.size else top


def _fine_size(K: int) -> int:
    """The smallest even 2^a 3^b 5^c of at least UPSAMPLING (2K + 1) points."""
    n = UPSAMPLING * (2 * K + 1)
    n += n % 2
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 2


class ParticleMesh:
    """Sums over particles of a trigonometric polynomial kernel with the modes
    |k|_inf <= K, by the ES kernel on a fine grid of UPSAMPLING (2K + 1)
    points or more per axis (NFFT fast summation, Potts & Steidl, SISC 2003).
    The kernel set takes K from its multiplier's tail (tail_cutoff), in 1-d
    as in 2-d, so the fine grid grows with the modes the kernel carries, not
    with the table lattice.

    The modes live in the box: the half spectrum of the (2K + 1)^d grid
    (downsample_spectrum).  transform(stencil, a) is a spread of the weights
    a, one forward transform and a crop to the box: psi_hat(k) times the
    measure's coefficients sum_i a_i exp(-2 pi i k.X_i), with psi_hat the
    kernel's transform.  crop(spec) divides a multiplier by psi_hat^2, so a
    cropped multiplier times a transform is the coefficients of the kernel's
    sum over the particles divided by psi_hat; values() and gradient() take
    such coefficients, and each is one inverse transform on the fine grid and
    one gather, the spread's transpose, which multiplies by psi_hat again.
    Sums with an odd multiplier are then a quadratic form of an
    antisymmetric operator, and cancel over the particles to roundoff.
    Both transforms run their first-axis pass on the box's K + 1 last-axis
    columns only, bit for bit the full transforms.  Points (B, N, d) are B
    systems on B fine grids: their stencil, spread, transforms and gather
    broadcast over the leading axis, each system bit for bit as alone.
    """

    def __init__(self, d: int, K: int):
        self.d, self.K = d, K
        self.box = 2 * K + 1
        self.fine = _fine_size(K)
        # the fine grid's rows of the box's frequencies 0 .. K, -K .. -1
        self._rows = np.r_[0 : K + 1, self.fine - K : self.fine]
        psi = _es_transform(self.fine, K)
        self._deconv = 1.0
        for k in freq_lattice(self.box, d):
            self._deconv = self._deconv / psi[np.abs(k).astype(np.int64)] ** 2

    def crop(self, spec: np.ndarray) -> np.ndarray:
        """A multiplier on an even lattice, cropped to the box and divided by
        psi_hat^2."""
        return downsample_spectrum(spec, self.box) * self._deconv

    def stencil(self, points) -> Stencil:
        return _es_stencil(points, self.fine, self.d)

    def transform(self, stencil: Stencil, weights: np.ndarray) -> np.ndarray:
        """psi_hat times the coefficients of sum_i weights_i delta_{X_i} on the
        box, per system of the stencil: one spread and one stacked transform."""
        spec = forward_transform(spread(stencil, weights), self.K + 1, self.d)
        return spec if self.d == 1 else spec.take(self._rows, axis=-2)

    def values(self, stencil: Stencil, coeffs: np.ndarray) -> np.ndarray:
        """At each particle, the function whose coefficients are psi_hat times
        coeffs, a box half spectrum per system of the stencil."""
        if self.d == 2:
            cols = np.zeros(coeffs.shape[:-2] + (self.fine, self.K + 1), dtype=coeffs.dtype)
            cols[..., self._rows, :] = coeffs
            coeffs = cols
        grid = inverse_transform(coeffs, self.fine, self.d)
        return gather(stencil, grid) * (1.0 / self.fine) ** self.d

    def gradient(self, stencil: Stencil, coeffs: np.ndarray) -> np.ndarray:
        """(..., N, d): the gradient of the same function at each particle."""
        return np.stack([self.values(stencil, g * coeffs)
                         for g in grad_multipliers(self.box, self.d)], axis=-1)
