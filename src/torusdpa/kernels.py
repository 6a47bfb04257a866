"""Kernel factory: mollifiers, the spectral viscosity kernel, compositions.

Three families are built here:

* ``compact-bump`` / ``truncated-gaussian`` mollifiers, tabulated on a
  periodic grid, with optional normalization of the per-axis second moment.
  In moment-targeted mode the profile width is tuned so the tabulated kernel
  hits the requested moment exactly (this is what makes the nonlocal
  diffusion operator consistent with the Laplacian); in natural mode the
  profile width equals the scale and the achieved moment is recorded.
* a ``matern-viscosity`` kernel defined by its spectrum
  R_hat = (1 + |2 pi alpha xi|^2)^(-k), with its convolution square root.
* compositions.  A KernelSet holds the real half spectra of its two
  mollifiers, o_hat and ot_hat, and R_hat; every other kernel is a
  multiplier on them (KernelSet.multiplier): the interaction kernel
  W_hat = ot_hat^2 (1 - o_hat)/eps^2, the squared smoothing kernel ot_hat^2,
  the particles' pair potential U_hat = W_hat - 2 ot_hat^2 (+ eps_star R_hat)
  and the grid velocity's linear part W_hat + eps_star R_hat.  Hessian
  bounds are read off the multipliers, and a coarser set crops the spectra.

Each table is interpolated by one periodic cubic B-spline (C^2), which gives
both values and gradients, so a gradient is the exact derivative of the
values; parity (even values, odd gradients) is enforced exactly by
evaluating at |delta| and applying component signs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .spectral import (
    downsample_spectrum,
    forward_transform,
    freq_lattice,
    grad_multipliers,
    inverse_transform,
    k_squared,
    minimage_coords,
    spline_coefficients,
    spline_gradient,
    spline_prepare,
    spline_values,
)

__all__ = [
    "KernelError",
    "KernelEmbedError",
    "KernelResolutionError",
    "KernelTable",
    "KernelFamily",
    "ViscosityKernel",
    "ParameterSchedule",
    "KernelSet",
    "make_mollifier",
    "make_viscosity_kernel",
    "schedule_from_epsilon",
    "lambda_convexity_constant",
    "build_kernel_set",
    "export_kernel_csv",
    "DEFAULT_TABLE_POINTS",
]

DEFAULT_TABLE_POINTS = {1: 4096, 2: 512}


class KernelError(ValueError):
    pass


class KernelEmbedError(KernelError):
    """Requested support does not fit inside the half-torus."""


class KernelResolutionError(KernelError):
    """Fewer than 8 table samples across the kernel scale."""


# ---------------------------------------------------------------------------
# tabulated periodic kernels


class KernelTable:
    """A periodic kernel tabulated on a uniform n^d grid.  Values and gradients
    off the grid come from one interpolant, the periodic cubic B-spline through
    the samples, whose padded coefficients are built on first use.  A table
    made from a spectrum keeps that spectrum only until then."""

    def __init__(self, values: np.ndarray, support_radius: Optional[float] = None):
        values = np.asarray(values, dtype=float)
        self.values = values
        self.d = values.ndim
        self.n = values.shape[0]
        self.h = 1.0 / self.n
        self.support_radius = support_radius
        self._coeffs: Optional[np.ndarray] = None
        self._spectrum: Optional[np.ndarray] = None

    @property
    def coefficients(self) -> np.ndarray:
        """Wrap-padded spline coefficients (spectral.spline_coefficients), cached."""
        if self._coeffs is None:
            spec = self._spectrum if self._spectrum is not None else self.fourier()
            self._coeffs = spline_coefficients(spec, self.n)
            self._spectrum = None
        return self._coeffs

    # -- integrals on the table ------------------------------------------

    def mass(self) -> float:
        return float(self.values.sum() * self.h**self.d)

    def first_moment(self) -> np.ndarray:
        xis = minimage_coords(self.n, self.d)
        w = self.h**self.d
        return np.array([float((self.values * xi).sum() * w) for xi in xis])

    def second_moment(self) -> np.ndarray:
        """Per-axis minimum-image second moment of the tabulated kernel."""
        xis = minimage_coords(self.n, self.d)
        w = self.h**self.d
        return np.array([float((self.values * xi * xi).sum() * w) for xi in xis])

    def symmetry_error(self) -> float:
        rev = self.values
        for ax in range(self.d):
            rev = np.flip(np.roll(rev, -1, axis=ax), axis=ax)
        return float(np.max(np.abs(self.values - rev)))

    def fourier(self) -> np.ndarray:
        """Half spectrum of the table (spectral.forward_transform)."""
        return forward_transform(self.values)

    # -- algebra -----------------------------------------------------------

    def convolve(self, other: "KernelTable") -> "KernelTable":
        if other.n != self.n or other.d != self.d:
            raise KernelError("convolve: incompatible grids")
        return KernelTable.from_spectrum(self.fourier() * other.fourier(), self.n)

    @classmethod
    def from_spectrum(cls, spec: np.ndarray, n: int) -> "KernelTable":
        """The table on the n^d grid with half spectrum spec."""
        table = cls(inverse_transform(spec, n))
        table._spectrum = spec
        return table

    # -- point evaluation (exact parity) -----------------------------------

    def value_at(self, points) -> np.ndarray:
        """The interpolant at |delta| per component: exactly even."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        prep = spline_prepare(np.abs(pts), self.n, self.d)
        return spline_values(self.coefficients, prep)

    def grad_at(self, points) -> np.ndarray:
        """The interpolant's gradient at |delta| with each component's sign
        applied: exactly odd, and the exact gradient of value_at."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        prep = spline_prepare(np.abs(pts), self.n, self.d, gradient=True)
        return np.sign(pts) * np.stack(spline_gradient(self.coefficients, prep), axis=-1)

    def node_gradients(self) -> np.ndarray:
        """grad_at at the grid nodes, shape (n^d, d).  At a node the stencil
        is fixed, slope weights (-n/2, 0, n/2) on its axis and value weights
        (1/6, 2/3, 1/6) on the other, so each component is a sum of shifted
        coefficient arrays, read at the node |x| and signed as in grad_at."""
        n, d, c = self.n, self.d, self.coefficients

        def shift(a, ax, lo):  # n entries from padded index lo on axis ax
            return a[(slice(None),) * ax + (slice(lo, lo + n),)]

        mirror = np.ix_(*[np.minimum(np.arange(n), n - np.arange(n))] * d)
        sign = np.sign(minimage_coords(n, 1)[0])
        out = np.empty((d,) + (n,) * d)
        for ax in range(d):
            g = shift(c, ax, 2) - shift(c, ax, 0)
            g *= 0.5 * n
            for other in range(d):
                if other != ax:
                    smooth = 4.0 * shift(g, other, 1)
                    smooth += shift(g, other, 0)
                    smooth += shift(g, other, 2)
                    g = smooth
                    g /= 6.0
            np.multiply(sign.reshape((-1,) + (1,) * (d - 1 - ax)), g[mirror], out=out[ax])
        return out.reshape(d, -1).T


def hessian_eigs(spec: np.ndarray, n: int):
    """Pointwise Hessian eigenvalues on the n^d grid of the kernel with half
    spectrum spec."""
    d = spec.ndim
    ks = freq_lattice(n, d)
    fxx = inverse_transform(-((2 * np.pi * ks[0]) ** 2) * spec, n)
    if d == 1:
        return (fxx,)
    fyy = inverse_transform(-((2 * np.pi * ks[1]) ** 2) * spec, n)
    gx, gy = grad_multipliers(n, d)
    fxy = inverse_transform(gx * gy * spec, n)
    tr = fxx + fyy
    disc = np.sqrt((fxx - fyy) ** 2 + 4.0 * fxy**2)
    return (0.5 * (tr - disc), 0.5 * (tr + disc))


def hessian_inf_norm(spec: np.ndarray, n: int) -> float:
    """Max over the n^d grid of the spectral norm of the Hessian of the
    kernel with half spectrum spec."""
    return float(max(np.max(np.abs(e)) for e in hessian_eigs(spec, n)))


# ---------------------------------------------------------------------------
# mollifier construction


def _bump_radial(r):
    out = np.zeros_like(r)
    inside = r < 1.0
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ri * ri))
    return out


def _sample_profile(kind, width, cut, n, d):
    """Sample an unnormalized radial profile on the grid."""
    xis = minimage_coords(n, d)
    r2 = sum(xi * xi for xi in xis)
    r = np.sqrt(r2)
    if kind == "compact-bump":
        vals = _bump_radial(r / width)
    elif kind == "truncated-gaussian":
        vals = np.exp(-0.5 * r2 / width**2)
        if 5.0 * width <= cut:
            # the 5-sigma cut: the jump there is e^{-12.5}, spectrally harmless
            vals = np.where(r > cut, 0.0, vals)
        else:
            # cut capped by the torus: a hard cut would leave an O(1) jump and a
            # slowly decaying spectrum, so blend to zero with a C^1 cosine taper
            r0 = 0.8 * cut
            s = np.clip((r - r0) / (cut - r0), 0.0, 1.0)
            taper = np.where(r <= r0, 1.0, np.where(r >= cut, 0.0, np.cos(0.5 * np.pi * s) ** 2))
            vals = vals * taper
    else:
        raise KernelError(f"unknown mollifier kind {kind!r}")
    return vals


@dataclass
class KernelFamily:
    """An admissible mollifier: nonnegative, even, unit mass, zero first
    moment, and a known per-axis second moment."""

    kind: str
    scale: float
    d: int
    second_moment_target: float
    table: KernelTable
    moment_normalized: bool
    profile_width: float

    def validate(self, mass_tol=1e-8, sym_tol=1e-12, first_tol=1e-10, second_tol=1e-6):
        """Check all admissibility invariants; returns a dict of measured errors."""
        t = self.table
        report = {
            "min_value": float(t.values.min()),
            "mass_error": abs(t.mass() - 1.0),
            "symmetry_error": t.symmetry_error(),
            "first_moment": float(np.max(np.abs(t.first_moment()))),
            "second_moment_error": float(
                np.max(np.abs(t.second_moment() - self.second_moment_target))
            ),
        }
        ok = (
            report["min_value"] >= 0.0
            and report["mass_error"] <= mass_tol
            and report["symmetry_error"] <= sym_tol
            and report["first_moment"] <= first_tol
            and report["second_moment_error"] <= second_tol
        )
        report["ok"] = ok
        return report


def _build_mollifier_table(kind, width, n, d, cut_cap):
    cut = min(5.0 * width, cut_cap) if kind == "truncated-gaussian" else width
    vals = _sample_profile(kind, width, cut, n, d)
    m = vals.sum() * (1.0 / n) ** d
    if m <= 0:
        raise KernelError("kernel sampled to zero mass; increase table resolution")
    radius = cut if kind == "truncated-gaussian" else width
    return KernelTable(vals / m, support_radius=radius)


def make_mollifier(
    kind: str,
    scale: float,
    d: int = 1,
    second_moment_target: Optional[float] = None,
    normalize_moment: bool = True,
    table_points: Optional[int] = None,
) -> KernelFamily:
    """Construct an admissible mollifier at the given scale.

    With normalize_moment=True the profile width is tuned so the tabulated
    per-axis second moment equals second_moment_target (default 2 scale^2,
    the Laplacian convention).  With normalize_moment=False the
    profile width is the scale itself and the achieved moment is recorded as
    the target.
    """
    if not (0.0 < scale < 0.5):
        raise KernelError(f"scale {scale} outside (0, 1/2)")
    n = table_points or DEFAULT_TABLE_POINTS[d]
    h = 1.0 / n
    cut_cap = 0.5 - 2.0 * h

    if normalize_moment:
        if second_moment_target is None:
            second_moment_target = 2.0 * scale**2
        width = scale  # starting guess; fixed-point drives the moment to target
        table = None
        tol = 1e-9 * max(second_moment_target, 1e-12)

        def measure(w):
            if kind == "compact-bump" and w > cut_cap:
                raise KernelEmbedError(
                    f"compact-bump with per-axis moment {second_moment_target:.3e} needs "
                    f"support radius {w:.3f} > {cut_cap:.3f}; scale too large to embed"
                )
            t = _build_mollifier_table(kind, w, n, d, cut_cap)
            return t, float(t.second_moment()[0])

        converged = False
        for _ in range(30):
            table, m2 = measure(width)
            if abs(m2 - second_moment_target) <= tol:
                converged = True
                break
            if m2 <= 0:
                raise KernelError("degenerate moment during normalization")
            factor = math.sqrt(second_moment_target / m2)
            if kind == "truncated-gaussian" and width > 50.0 and factor > 1.0:
                raise KernelEmbedError(
                    f"truncated-gaussian cannot reach per-axis moment "
                    f"{second_moment_target:.3e} inside the torus (max ~{m2:.3e})"
                )
            width *= factor
        if not converged:
            # near the torus cap the moment saturates in width and the
            # fixed-point stalls; the moment is monotone in width, so bisect
            lo, hi = width, width
            t_lo, m_lo = measure(lo)
            while m_lo > second_moment_target:
                hi, lo = lo, lo / 1.3
                t_lo, m_lo = measure(lo)
            t_hi, m_hi = measure(hi) if hi > lo else (t_lo, m_lo)
            while m_hi < second_moment_target:
                hi *= 1.3
                if kind == "truncated-gaussian" and hi > 1e3:
                    raise KernelEmbedError(
                        f"truncated-gaussian cannot reach per-axis moment "
                        f"{second_moment_target:.3e} inside the torus (max ~{m_hi:.3e})"
                    )
                t_hi, m_hi = measure(hi)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                table, m2 = measure(mid)
                if abs(m2 - second_moment_target) <= tol:
                    width = mid
                    converged = True
                    break
                if m2 < second_moment_target:
                    lo = mid
                else:
                    hi = mid
            if not converged:
                raise KernelError(
                    f"moment normalization did not converge (target "
                    f"{second_moment_target:.6e}, reached {m2:.6e})"
                )
    else:
        width = scale
        if kind == "compact-bump" and width > cut_cap:
            raise KernelEmbedError(
                f"support radius {width:.3f} > {cut_cap:.3f}; scale too large to embed"
            )
        table = _build_mollifier_table(kind, width, n, d, cut_cap)
        second_moment_target = float(table.second_moment()[0])

    if width / h < 8.0:
        raise KernelResolutionError(
            f"only {width / h:.1f} samples across scale {width:.2e}; need >= 8"
        )
    return KernelFamily(
        kind=kind,
        scale=scale,
        d=d,
        second_moment_target=second_moment_target,
        table=table,
        moment_normalized=normalize_moment,
        profile_width=width,
    )


# ---------------------------------------------------------------------------
# viscosity kernel


@dataclass
class ViscosityKernel:
    """Bessel-spectrum kernel R_alpha with convolution square root R^(1/2);
    both tables are built from the spectrum on first use."""

    alpha: float
    k: float
    d: int
    n: int
    spectrum: np.ndarray  # R_alpha hat on the half-spectrum lattice

    @functools.cached_property
    def table(self) -> KernelTable:
        return KernelTable.from_spectrum(self.spectrum, self.n)

    @functools.cached_property
    def half_table(self) -> KernelTable:
        return KernelTable.from_spectrum(np.sqrt(self.spectrum), self.n)

    def verify_bounds(self):
        """Check a/|xi|^{2k} <= R_hat(xi) <= b/|xi|^k for lattice 1 < |xi| <= Nyquist,
        with R_hat unscaled (alpha = 1), a = (1 + 4 pi^2)^-k and b = (4 pi^2)^-k."""
        mag = np.sqrt(sum(k * k for k in freq_lattice(self.n, self.d)))
        sel = mag > 1.0
        m = mag[sel]
        spec = ((1.0 + k_squared(self.n, self.d)) ** (-self.k))[sel]
        lower = (1.0 + 4.0 * np.pi**2) ** (-self.k) / m ** (2 * self.k)
        upper = (4.0 * np.pi**2) ** (-self.k) / m**self.k
        return {
            "positive": bool(np.all(self.spectrum > 0.0)),
            "lower_ok": bool(np.all(spec >= lower * (1 - 1e-12))),
            "upper_ok": bool(np.all(spec <= upper * (1 + 1e-12))),
            "half_reconstruction": self.half_reconstruction_error(),
        }

    def half_reconstruction_error(self) -> float:
        conv = self.half_table.convolve(self.half_table)
        return float(np.max(np.abs(conv.values - self.table.values)))


def make_viscosity_kernel(
    alpha: float, k: float = 4.0, d: int = 1, table_points: Optional[int] = None
) -> ViscosityKernel:
    """Build R_alpha from the spectrum (1+|2 pi alpha xi|^2)^(-k)."""
    if alpha >= 0.5:
        raise KernelError(f"alpha {alpha} >= 1/2: kernel too wide for the torus")
    if alpha <= 0.0:
        raise KernelError("alpha must be positive (alpha=0 means R_alpha * rho = rho)")
    if k < d / 2.0 + 3.0:
        raise KernelError(f"k={k} below floor d/2+3={d / 2 + 3}: R needs two bounded derivatives")
    n = table_points or DEFAULT_TABLE_POINTS[d]
    if alpha * n < 8.0:
        raise KernelResolutionError(
            f"only {alpha * n:.1f} samples across alpha={alpha}; need >= 8"
        )
    spec = (1.0 + alpha**2 * k_squared(n, d)) ** (-k)
    return ViscosityKernel(alpha=alpha, k=k, d=d, n=n, spectrum=spec)


# ---------------------------------------------------------------------------
# parameter schedule


@dataclass
class ParameterSchedule:
    """The coupled small parameters: eps << eps_tilde << eps_star, alpha."""

    epsilon: float
    epsilon_tilde: float
    epsilon_star: float
    alpha: float
    m: float = 2.0
    d: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.m <= 1:
            raise ValueError("m must exceed 1")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.epsilon < 1.0:
            if not self.epsilon < self.epsilon_tilde:
                raise ValueError(
                    f"ordering violated: epsilon ({self.epsilon}) must be < "
                    f"epsilon_tilde ({self.epsilon_tilde})"
                )
            if not self.epsilon_tilde < self.epsilon_star:
                raise ValueError(
                    f"ordering violated: epsilon_tilde ({self.epsilon_tilde}) must be < "
                    f"epsilon_star ({self.epsilon_star})"
                )


def schedule_from_epsilon(
    epsilon: float,
    d: int = 1,
    m: float = 2.0,
    c: float = 1.0,
    epsilon_tilde: Optional[float] = None,
    epsilon_star: Optional[float] = None,
    alpha: Optional[float] = None,
) -> ParameterSchedule:
    """Derive the default coupled schedule from epsilon, with overrides.

    Defaults: eps_tilde = eps^(1/(d+6)), eps_star = sqrt(eps_tilde),
    alpha = exp(-c/eps) (which underflows to 0.0 for very small eps; alpha=0
    is accepted and means R_alpha * rho = rho).  A kernel set needs
    eps_tilde < 1/2, which the default meets only for eps < 2^-(d+6).
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon {epsilon} outside (0, 1/2)")
    if epsilon_tilde is None:
        epsilon_tilde = epsilon ** (1.0 / (d + 6))
    if epsilon_star is None:
        epsilon_star = epsilon_tilde**0.5
    if alpha is None:
        alpha = math.exp(-c / epsilon)
    return ParameterSchedule(
        epsilon=epsilon,
        epsilon_tilde=epsilon_tilde,
        epsilon_star=epsilon_star,
        alpha=alpha,
        m=m,
        d=d,
    )


# ---------------------------------------------------------------------------
# kernel set and convexity constant


@dataclass
class KernelSet:
    """All kernels needed by one schedule on a common grid: the two mollifier
    families, the viscosity kernel, and the tables composed from their spectra."""

    schedule: ParameterSchedule
    omega: KernelFamily
    omega_tilde: KernelFamily
    viscosity: Optional[ViscosityKernel] = None
    _smooth2: Optional[KernelTable] = None
    _W: Optional[KernelTable] = None
    _pairs: dict = field(default_factory=dict)
    _spectra: Optional[tuple] = None
    _stable_cache: dict = field(default_factory=dict)  # particles.stable_dt's bounds

    @property
    def n(self) -> int:
        return self.omega.table.n

    @property
    def d(self) -> int:
        return self.omega.table.d

    @property
    def spectra(self) -> tuple:
        """Real half spectra (omega_hat, omega_tilde_hat) of the families on the
        set's lattice, transformed once on first use (copied out of the
        complex transforms, which are freed)."""
        if self._spectra is None:
            self._spectra = tuple(f.table.fourier().real.copy()
                                  for f in (self.omega, self.omega_tilde))
        return self._spectra

    def multiplier(self, W: float = 0.0, smooth2: float = 0.0, viscosity: float = 0.0):
        """The half spectrum W W_hat + smooth2 ot_hat^2 + viscosity R_hat, with
        W_hat = ot_hat^2 (1 - o_hat)/eps^2; every composed kernel is one."""
        o_hat, ot_hat = self.spectra
        sq = ot_hat * ot_hat
        out = np.zeros_like(sq)
        if W:
            out += W * (sq * (1.0 - o_hat) / self.schedule.epsilon**2)
        if smooth2:
            out += smooth2 * sq
        if viscosity:
            if self.viscosity is None:
                raise KernelError("a viscosity term requires alpha > 0 "
                                  "(use appendix-A mode to drop the term)")
            out += viscosity * self.viscosity.spectrum
        return out

    @property
    def smooth2(self) -> KernelTable:
        """ot * ot, the squared smoothing kernel of the aggregation term."""
        if self._smooth2 is None:
            self._smooth2 = KernelTable.from_spectrum(self.multiplier(smooth2=1.0), self.n)
        return self._smooth2

    @property
    def W(self) -> KernelTable:
        """W_eps = (ot*ot - o*ot*ot)/eps^2, the interaction kernel."""
        if self._W is None:
            self._W = KernelTable.from_spectrum(self.multiplier(W=1.0), self.n)
        return self._W

    def at_resolution(self, n2: int) -> "KernelSet":
        """Same kernels on a coarser grid: the spectra, R_hat included, cropped
        to the n2 lattice, and the family tables built from the crops."""
        if n2 == self.n:
            return self
        crops = tuple(downsample_spectrum(spec, n2) for spec in self.spectra)
        visc = None
        if self.viscosity is not None:
            visc = replace(self.viscosity, n=n2,
                           spectrum=downsample_spectrum(self.viscosity.spectrum, n2))
        return KernelSet(
            schedule=self.schedule,
            omega=replace(self.omega, table=KernelTable.from_spectrum(crops[0], n2)),
            omega_tilde=replace(self.omega_tilde, table=KernelTable.from_spectrum(crops[1], n2)),
            viscosity=visc,
            _spectra=crops,
        )

    def pair_spectrum(self, include_viscosity: bool = True) -> np.ndarray:
        """U_hat = W_hat - 2 ot_hat^2 [+ eps_star R_hat], the m=2 pair potential."""
        eps_star = self.schedule.epsilon_star if include_viscosity else 0.0
        return self.multiplier(W=1.0, smooth2=-2.0, viscosity=eps_star)

    def pair_kernel(self, include_viscosity: bool = True) -> KernelTable:
        """The table of pair_spectrum; its interpolant reads the same spectrum."""
        key = bool(include_viscosity)
        if key not in self._pairs:
            self._pairs[key] = KernelTable.from_spectrum(self.pair_spectrum(key), self.n)
        return self._pairs[key]


def build_kernel_set(
    schedule: ParameterSchedule,
    kind: str = "compact-bump",
    table_points: Optional[int] = None,
    omega_moment: Optional[float] = None,
    normalize_omega: bool = True,
    normalize_tilde: bool = False,
    tilde_moment: Optional[float] = None,
    viscosity_k: float = 4.0,
    with_viscosity: bool = True,
) -> KernelSet:
    d = schedule.d
    if not schedule.epsilon_tilde < 0.5:
        raise KernelError(
            f"epsilon_tilde {schedule.epsilon_tilde:.4g} is not below 1/2, the largest "
            f"mollifier scale; the default epsilon_tilde = epsilon^(1/(d+6)) is below 1/2 "
            f"only for epsilon < 2^-(d+6) = {0.5 ** (d + 6):.4g}, so lower epsilon or set "
            f"epsilon_tilde and epsilon_star"
        )
    n = table_points or DEFAULT_TABLE_POINTS[d]
    omega = make_mollifier(
        kind,
        schedule.epsilon,
        d,
        second_moment_target=omega_moment,
        normalize_moment=normalize_omega,
        table_points=n,
    )
    omega_tilde = make_mollifier(
        kind,
        schedule.epsilon_tilde,
        d,
        second_moment_target=tilde_moment,
        normalize_moment=normalize_tilde,
        table_points=n,
    )
    viscosity = None
    if with_viscosity and schedule.alpha > 0.0:
        viscosity = make_viscosity_kernel(schedule.alpha, k=viscosity_k, d=d, table_points=n)
    return KernelSet(schedule=schedule, omega=omega, omega_tilde=omega_tilde, viscosity=viscosity)


def lambda_convexity_constant(
    kernels: Optional[KernelSet] = None,
    schedule: Optional[ParameterSchedule] = None,
    prefactor: Optional[float] = None,
) -> float:
    """Geodesic-convexity modulus of the pair interaction energy (always <= 0).

    Default path: minus the max-norm of the negative part of the pair
    kernel's Hessian, computed from its spectrum on the table grid.  With an
    explicit prefactor C, returns -C*(eps^-2*et^-(d+2) + et^-(d+2) + eps_star*alpha^-(d+2)).
    """
    sched = schedule or (kernels.schedule if kernels is not None else None)
    if sched is None:
        raise ValueError("need a schedule or a kernel set")
    if sched.alpha == 0.0:
        raise ValueError("lambda undefined at alpha=0: viscosity degenerates to local diffusion")
    if prefactor is not None:
        dd = sched.d + 2
        return -prefactor * (
            sched.epsilon**-2 * sched.epsilon_tilde**-dd
            + sched.epsilon_tilde**-dd
            + sched.epsilon_star * sched.alpha**-dd
        )
    if kernels is None:
        raise ValueError("default path needs the tabulated kernels")
    eigs = hessian_eigs(kernels.pair_spectrum(include_viscosity=True), kernels.n)
    return float(min(0.0, eigs[0].min()))


# ---------------------------------------------------------------------------
# export


def export_kernel_csv(kernel, path):
    """Write a kernel table as CSV: coordinates, value, and the gradient
    components of the table's interpolant at the nodes."""
    table = kernel.table if hasattr(kernel, "table") else kernel
    xis = minimage_coords(table.n, table.d)
    cols = [xi.ravel() for xi in xis]
    cols.append(table.values.ravel())
    cols.extend(table.node_gradients().T)
    header = (
        [f"x{i + 1}" for i in range(table.d)]
        + ["value"]
        + [f"grad{i + 1}" for i in range(table.d)]
    )
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")
