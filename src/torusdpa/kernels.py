"""Kernel factory: mollifiers, the spectral viscosity kernel, compositions.

Three families are built here:

* ``compact-bump`` / ``truncated-gaussian`` mollifiers, tabulated on a
  periodic grid, with optional normalization of the per-axis second moment.
  In moment-targeted mode the profile width is tuned so the tabulated kernel
  hits the requested moment exactly (this is what makes the nonlocal
  diffusion operator consistent with the Laplacian); in natural mode the
  profile width equals the scale and the achieved moment is recorded.
* a ``matern-viscosity`` kernel defined by the spectrum
  (1 + |2 pi xi|^2)^(-k), together with its convolution square root.
* spectral compositions: the interaction kernel
  W = (ot*ot - o*ot*ot) / eps^2 and the pair potential used by the particle
  energy, U = W - 2*(ot*ot) + eps_star * R_alpha.

Interpolation of tables is Catmull-Rom; parity (even values, odd gradients)
is enforced exactly by evaluating at |delta| and applying component signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spectral import (
    catmull_rom_apply,
    catmull_rom_prepare,
    downsample_spectrum,
    forward_transform,
    freq_lattice,
    gradient,
    grad_multipliers,
    inverse_transform,
    k_squared,
    minimage_coords,
    pad_table,
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
    "compose_W_eps",
    "schedule_from_epsilon",
    "lambda_convexity_constant",
    "build_kernel_set",
    "export_kernel_csv",
    "DEFAULT_TABLE_POINTS",
]

DEFAULT_TABLE_POINTS = {1: 4096, 2: 512}

MOMENT_COEFFICIENTS = {"laplacian": lambda d: 2.0, "def11": lambda d: 2.0 / d}


class KernelError(ValueError):
    pass


class KernelEmbedError(KernelError):
    """Requested support does not fit inside the half-torus."""


class KernelResolutionError(KernelError):
    """Fewer than 8 table samples across the kernel scale."""


# ---------------------------------------------------------------------------
# tabulated periodic kernels


class KernelTable:
    """A periodic kernel tabulated on a uniform n^d grid with its gradient."""

    def __init__(self, values: np.ndarray, grads=None, support_radius: Optional[float] = None):
        values = np.asarray(values, dtype=float)
        self.values = values
        self.d = values.ndim
        self.n = values.shape[0]
        self.h = 1.0 / self.n
        if grads is None:
            grads = gradient(forward_transform(values), self.n)
        self.grads = [np.asarray(g, dtype=float) for g in grads]
        self.support_radius = support_radius
        self._pad_cache: dict = {}

    def padded(self, which: str = "values", axis: int = 0) -> np.ndarray:
        """Wrap-padded copy of a table, cached for the interpolation stencil."""
        key = (which, axis)
        if key not in self._pad_cache:
            arr = self.values if which == "values" else self.grads[axis]
            self._pad_cache[key] = pad_table(arr)
        return self._pad_cache[key]

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
        rad = None
        if self.support_radius is not None and other.support_radius is not None:
            total = self.support_radius + other.support_radius
            rad = total if total < 0.5 else None
        return KernelTable.from_spectrum(self.fourier() * other.fourier(), self.n, rad)

    @classmethod
    def from_spectrum(cls, spec: np.ndarray, n: int, support_radius=None) -> "KernelTable":
        """The table on the n^d grid with half spectrum spec."""
        return cls(inverse_transform(spec, n), grads=gradient(spec, n),
                   support_radius=support_radius)

    def resample(self, n2: int) -> "KernelTable":
        """Spectrally downsample the table to an n2-point grid."""
        if n2 == self.n:
            return self
        spec = downsample_spectrum(self.fourier(), n2)
        return KernelTable.from_spectrum(spec, n2, support_radius=self.support_radius)

    # -- point evaluation (exact parity) -----------------------------------

    def value_at(self, points) -> np.ndarray:
        """Even-symmetric Catmull-Rom evaluation of the kernel values."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        prep = catmull_rom_prepare(np.abs(pts), self.n, self.d)
        return catmull_rom_apply(self.values, prep, self.padded("values"))

    def grad_at(self, points) -> np.ndarray:
        """Odd-symmetric gradient evaluation: interp at |delta|, apply signs."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        prep = catmull_rom_prepare(np.abs(pts), self.n, self.d)
        out = np.empty(pts.shape, dtype=float)
        sign = np.sign(pts)
        for ax in range(self.d):
            out[..., ax] = sign[..., ax] * catmull_rom_apply(
                self.grads[ax], prep, self.padded("grad", ax)
            )
        return out

    def hessian_inf_norm(self) -> float:
        """Max over the grid of the spectral-norm of the Hessian."""
        eigs = hessian_eigs(self)
        return float(max(np.max(np.abs(e)) for e in eigs))


def hessian_eigs(table: KernelTable):
    """Pointwise Hessian eigenvalues of a tabulated kernel (spectral)."""
    n, d = table.n, table.d
    spec = table.fourier()
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


# ---------------------------------------------------------------------------
# mollifier construction


def _bump_radial(r):
    out = np.zeros_like(r)
    inside = r < 1.0
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ri * ri))
    return out


def _bump_radial_deriv(r):
    out = np.zeros_like(r)
    inside = r < 1.0
    ri = r[inside]
    q = 1.0 - ri * ri
    out[inside] = np.exp(-1.0 / q) * (-2.0 * ri / (q * q))
    return out


def _sample_profile(kind, width, cut, n, d):
    """Sample an unnormalized radial profile and its gradient on the grid."""
    xis = minimage_coords(n, d)
    r2 = sum(xi * xi for xi in xis)
    r = np.sqrt(r2)
    if kind == "compact-bump":
        u = r / width
        vals = _bump_radial(u)
        dv = _bump_radial_deriv(u) / width
    elif kind == "truncated-gaussian":
        vals = np.exp(-0.5 * r2 / width**2)
        dv = vals * (-r / width**2)
        if 5.0 * width <= cut:
            # the 5-sigma cut: the jump there is e^{-12.5}, spectrally harmless
            outside = r > cut
            vals = np.where(outside, 0.0, vals)
            dv = np.where(outside, 0.0, dv)
        else:
            # cut capped by the torus: a hard cut would leave an O(1) jump and a
            # slowly decaying spectrum, so blend to zero with a C^1 cosine taper
            r0 = 0.8 * cut
            span = cut - r0
            s = np.clip((r - r0) / span, 0.0, 1.0)
            taper = np.where(r <= r0, 1.0, np.where(r >= cut, 0.0, np.cos(0.5 * np.pi * s) ** 2))
            dtaper = np.where(
                (r > r0) & (r < cut),
                -0.5 * np.pi / span * np.sin(np.pi * s),
                0.0,
            )
            dv = dv * taper + vals * dtaper
            vals = vals * taper
    else:
        raise KernelError(f"unknown mollifier kind {kind!r}")
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = [np.where(r > 0, xi / r, 0.0) for xi in xis]
    grads = [dv * u for u in unit]
    return vals, grads


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

    def at_resolution(self, n2: int) -> "KernelFamily":
        if n2 == self.table.n:
            return self
        return KernelFamily(
            kind=self.kind,
            scale=self.scale,
            d=self.d,
            second_moment_target=self.second_moment_target,
            table=self.table.resample(n2),
            moment_normalized=self.moment_normalized,
            profile_width=self.profile_width,
        )

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
    vals, grads = _sample_profile(kind, width, cut, n, d)
    m = vals.sum() * (1.0 / n) ** d
    if m <= 0:
        raise KernelError("kernel sampled to zero mass; increase table resolution")
    vals = vals / m
    grads = [g / m for g in grads]
    radius = cut if kind == "truncated-gaussian" else width
    return KernelTable(vals, grads=grads, support_radius=radius)


def make_mollifier(
    kind: str,
    scale: float,
    d: int = 1,
    second_moment_target: Optional[float] = None,
    normalize_moment: bool = True,
    moment_convention: str = "laplacian",
    table_points: Optional[int] = None,
) -> KernelFamily:
    """Construct an admissible mollifier at the given scale.

    With normalize_moment=True the profile width is tuned so the tabulated
    per-axis second moment equals second_moment_target (default: the
    convention coefficient times scale^2).  With normalize_moment=False the
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
            second_moment_target = MOMENT_COEFFICIENTS[moment_convention](d) * scale**2
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
    """Bessel-spectrum kernel R_alpha with convolution square root R^(1/2)."""

    alpha: float
    k: float
    d: int
    table: KernelTable
    half_table: KernelTable
    spectrum: np.ndarray  # R_alpha hat on the half-spectrum lattice
    base_spectrum: np.ndarray  # unscaled R hat, used for the decay bounds
    bound_a: float
    bound_b: float

    def verify_bounds(self):
        """Check a/|xi|^{2k} <= R_hat(xi) <= b/|xi|^k for lattice 1 < |xi| <= Nyquist."""
        ks = freq_lattice(self.table.n, self.d)
        mag = np.sqrt(sum(k * k for k in ks))
        sel = mag > 1.0
        m = mag[sel]
        spec = self.base_spectrum[sel]
        lower = self.bound_a / m ** (2 * self.k)
        upper = self.bound_b / m**self.k
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
    mag2 = k_squared(n, d)
    base = (1.0 + mag2) ** (-k)
    spec = (1.0 + alpha**2 * mag2) ** (-k)
    table = KernelTable.from_spectrum(spec, n)
    half = KernelTable.from_spectrum(np.sqrt(spec), n)
    a = (1.0 + 4.0 * np.pi**2) ** (-k)
    b = (4.0 * np.pi**2) ** (-k)
    return ViscosityKernel(
        alpha=alpha,
        k=k,
        d=d,
        table=table,
        half_table=half,
        spectrum=spec,
        base_spectrum=base,
        bound_a=a,
        bound_b=b,
    )


# ---------------------------------------------------------------------------
# compositions


def compose_W_eps(omega: KernelFamily, omega_tilde: KernelFamily, epsilon: float) -> KernelTable:
    """Tabulate W_eps = (ot*ot - o*ot*ot)/eps^2 and its gradient spectrally."""
    to, tt = omega.table, omega_tilde.table
    if to.n != tt.n or to.d != tt.d:
        raise KernelError("compose_W_eps: incompatible grids")
    if epsilon <= 0:
        raise KernelError("epsilon must be positive")
    ohat = to.fourier()
    that = tt.fourier()
    spec = that * that * (1.0 - ohat) / epsilon**2
    rad = None
    if to.support_radius is not None and tt.support_radius is not None:
        total = 2.0 * tt.support_radius + to.support_radius
        rad = total if total < 0.5 else None
    return KernelTable.from_spectrum(spec, to.n, support_radius=rad)


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
    p: float = field(default=None)  # eps_tilde = eps**p by default
    q: float = 0.5  # eps_star = eps_tilde**q by default
    c: float = 1.0  # alpha = exp(-c/eps) by default

    def __post_init__(self):
        if self.p is None:
            self.p = 1.0 / (self.d + 6)
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
    is accepted and means R_alpha * rho = rho).
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError(f"epsilon {epsilon} outside (0, 1/2)")
    p = 1.0 / (d + 6)
    q = 0.5
    if epsilon_tilde is None:
        epsilon_tilde = epsilon**p
    if epsilon_star is None:
        epsilon_star = epsilon_tilde**q
    if alpha is None:
        alpha = math.exp(-c / epsilon)
    return ParameterSchedule(
        epsilon=epsilon,
        epsilon_tilde=epsilon_tilde,
        epsilon_star=epsilon_star,
        alpha=alpha,
        m=m,
        d=d,
        p=p,
        q=q,
        c=c,
    )


# ---------------------------------------------------------------------------
# kernel set and convexity constant


@dataclass
class KernelSet:
    """All tabulated kernels needed by one schedule on a common grid."""

    schedule: ParameterSchedule
    omega: KernelFamily
    omega_tilde: KernelFamily
    viscosity: Optional[ViscosityKernel] = None
    _smooth2: Optional[KernelTable] = None
    _W: Optional[KernelTable] = None
    _pairs: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.omega.table.n

    @property
    def d(self) -> int:
        return self.omega.table.d

    @property
    def smooth2(self) -> KernelTable:
        """ot * ot, the squared smoothing kernel of the aggregation term."""
        if self._smooth2 is None:
            self._smooth2 = self.omega_tilde.table.convolve(self.omega_tilde.table)
        return self._smooth2

    @property
    def W(self) -> KernelTable:
        if self._W is None:
            self._W = compose_W_eps(self.omega, self.omega_tilde, self.schedule.epsilon)
        return self._W

    def at_resolution(self, n2: int) -> "KernelSet":
        """Same kernels on a coarser grid (families resampled spectrally,
        the viscosity spectrum rebuilt exactly on the new lattice)."""
        if n2 == self.n:
            return self
        visc = None
        if self.viscosity is not None:
            visc = make_viscosity_kernel(
                self.viscosity.alpha, k=self.viscosity.k, d=self.d, table_points=n2
            )
        return KernelSet(
            schedule=self.schedule,
            omega=self.omega.at_resolution(n2),
            omega_tilde=self.omega_tilde.at_resolution(n2),
            viscosity=visc,
        )

    def pair_kernel(self, include_viscosity: bool = True) -> KernelTable:
        """U = W - 2*(ot*ot) [+ eps_star*R_alpha]; the m=2 pair potential."""
        key = bool(include_viscosity)
        if key not in self._pairs:
            spec = self.W.fourier() - 2.0 * self.smooth2.fourier()
            if include_viscosity:
                if self.viscosity is None:
                    raise KernelError(
                        "pair kernel with viscosity requires alpha > 0 "
                        "(use appendix-A mode to drop the term)"
                    )
                spec = spec + self.schedule.epsilon_star * self.viscosity.spectrum
            self._pairs[key] = KernelTable.from_spectrum(spec, self.n)
        return self._pairs[key]


def build_kernel_set(
    schedule: ParameterSchedule,
    kind: str = "compact-bump",
    tilde_kind: Optional[str] = None,
    table_points: Optional[int] = None,
    omega_moment: Optional[float] = None,
    normalize_omega: bool = True,
    normalize_tilde: bool = False,
    tilde_moment: Optional[float] = None,
    moment_convention: str = "laplacian",
    viscosity_k: float = 4.0,
    with_viscosity: bool = True,
) -> KernelSet:
    d = schedule.d
    n = table_points or DEFAULT_TABLE_POINTS[d]
    omega = make_mollifier(
        kind,
        schedule.epsilon,
        d,
        second_moment_target=omega_moment,
        normalize_moment=normalize_omega,
        moment_convention=moment_convention,
        table_points=n,
    )
    omega_tilde = make_mollifier(
        tilde_kind or kind,
        schedule.epsilon_tilde,
        d,
        second_moment_target=tilde_moment,
        normalize_moment=normalize_tilde,
        moment_convention=moment_convention,
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
    kernel's Hessian, computed spectrally on the table.  With an explicit
    prefactor C, returns -C*(eps^-2*et^-(d+2) + et^-(d+2) + eps_star*alpha^-(d+2)).
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
    eigs = hessian_eigs(kernels.pair_kernel(include_viscosity=True))
    return float(min(0.0, eigs[0].min()))


# ---------------------------------------------------------------------------
# export


def export_kernel_csv(kernel, path):
    """Write a kernel table as CSV: coordinates, value, gradient components."""
    table = kernel.table if hasattr(kernel, "table") else kernel
    xis = minimage_coords(table.n, table.d)
    cols = [xi.ravel() for xi in xis]
    cols.append(table.values.ravel())
    cols.extend(g.ravel() for g in table.grads)
    header = (
        [f"x{i + 1}" for i in range(table.d)]
        + ["value"]
        + [f"grad{i + 1}" for i in range(table.d)]
    )
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")
