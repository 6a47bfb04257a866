"""Kernel factory: mollifiers, the spectral viscosity kernel, compositions.

Three families are built here:

* ``compact-bump`` / ``truncated-gaussian`` mollifiers, tabulated on a
  periodic grid.  One argument sets the per-axis second moment: given a
  target, make_mollifier tunes the profile width until the tabulated kernel
  hits it (this is what makes the nonlocal diffusion operator consistent
  with the Laplacian); given none, the profile width equals the scale and
  the achieved moment is recorded.
* a ``matern-viscosity`` kernel defined by its spectrum
  R_hat = (1 + |2 pi alpha xi|^2)^(-k), with its convolution square root.
* compositions.  A KernelSet holds its two mollifiers, whose real half
  spectra o_hat and ot_hat are transformed once, and R_hat (viscosity_hat);
  the interaction kernel's W_hat = ot_hat^2 (1 - o_hat)/eps^2 (w_hat), the
  particles' pair potential U_hat = W_hat - 2 ot_hat^2 (+ eps_star R_hat) and
  the grid velocity's linear part W_hat + eps_star R_hat are composed from
  them.  The W and U tables are built when asked for, never kept.  Hessian
  bounds are read off the spectra, a coarser set crops them, and the
  particle sums run on a spectral.ParticleMesh that holds the particle
  velocity's three addend multipliers cropped to its box and scaled by the
  schedule (KernelSet.particle_mesh).  A set built at alpha = 0 carries no
  R_hat, and viscosity_hat raises the one error of every particle entry
  point outside appendix-A mode, which the set fixes.

A kernel is read only through its spectrum: the particle sums through the
particle mesh's multipliers, the grid operators (fields.periodic_convolve)
and the kernel density estimate (fields.kde_density) as multipliers, the
step bounds through Hessians and gradients of the spectra, and the CSV
export through the spectral node gradient (spectral.gradient).  A
KernelTable holds the samples, for the moments and the export, and keeps the
spectrum it was made from, or a mollifier's real spectrum once transformed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spectral import (
    ParticleMesh,
    downsample_spectrum,
    forward_transform,
    freq_lattice,
    grad_multipliers,
    gradient,
    inverse_transform,
    k_squared,
    minimage_coords,
    tail_cutoff,
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
    "MOLLIFIER_KINDS",
]

DEFAULT_TABLE_POINTS = {1: 4096, 2: 512}
MOLLIFIER_KINDS = ("compact-bump", "truncated-gaussian")
# make_mollifier's largest gaussian width: past it the profile under the
# torus-capped cut is flat to 1e-6, so its moment has saturated
_GAUSSIAN_WIDTH_CAP = 1e3
# make_mollifier's table builds per mollifier before it gives up
_MAX_TABLE_BUILDS = 200
# KernelFamily.validate's bounds on the table's measured errors
_VALIDATE_TOLS = {"mass_error": 1e-8, "symmetry_error": 1e-12, "first_moment": 1e-10,
                  "second_moment_error": 1e-6}
_HALF_RECONSTRUCTION_TOL = 1e-8  # verify_bounds' bound on |R^(1/2) * R^(1/2) - R|


class KernelError(ValueError):
    pass


class KernelEmbedError(KernelError):
    """Requested support does not fit inside the half-torus."""


class KernelResolutionError(KernelError):
    """Fewer than 8 table samples across the kernel scale."""


# ---------------------------------------------------------------------------
# tabulated periodic kernels


class KernelTable:
    """A periodic kernel tabulated on a uniform n^d grid; a table made from a
    spectrum keeps it."""

    def __init__(self, values: np.ndarray, support_radius: Optional[float] = None):
        values = np.asarray(values, dtype=float)
        self.values = values
        self.d = values.ndim
        self.n = values.shape[0]
        self.h = 1.0 / self.n
        self.support_radius = support_radius
        self._spectrum: Optional[np.ndarray] = None

    @property
    def spectrum(self) -> np.ndarray:
        """The half spectrum the table was made from, else a forward transform
        of the values."""
        return self._spectrum if self._spectrum is not None else self.fourier()

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

    @classmethod
    def from_spectrum(cls, spec: np.ndarray, n: int) -> "KernelTable":
        """The table on the n^d grid with half spectrum spec."""
        table = cls(inverse_transform(spec, n))
        table._spectrum = spec
        return table


def _hessian_parts(spec: np.ndarray, n: int) -> tuple:
    """(fxx,) in 1-d, (trace, disc) in 2-d, on the n^d grid, of the Hessian of
    the kernel with half spectrum spec: its eigenvalues are fxx, or
    0.5 (trace -+ disc) with disc = sqrt((fxx - fyy)^2 + 4 fxy^2) >= 0."""
    d = spec.ndim
    ks = freq_lattice(n, d)
    # one transform per entry: a stacked pass holds the three spectra and
    # their first-axis transforms at once, and on the 2-d particle benchmark
    # raised the peak RSS by 5 MB (7 %)
    fxx = inverse_transform(-((2 * np.pi * ks[0]) ** 2) * spec, n)
    if d == 1:
        return (fxx,)
    fyy = inverse_transform(-((2 * np.pi * ks[1]) ** 2) * spec, n)
    gx, gy = grad_multipliers(n, d)
    fxy = inverse_transform(gx * gy * spec, n)
    tr = fxx + fyy
    fxx -= fyy
    fxx *= fxx
    fxy *= fxy
    fxy *= 4.0
    fxx += fxy
    return tr, np.sqrt(fxx, out=fxx)


def hessian_eigs(spec: np.ndarray, n: int):
    """Pointwise Hessian eigenvalues on the n^d grid of the kernel with half
    spectrum spec."""
    parts = _hessian_parts(spec, n)
    if len(parts) == 1:
        return parts
    tr, disc = parts
    return (0.5 * (tr - disc), 0.5 * (tr + disc))


def hessian_inf_norm(spec: np.ndarray, n: int) -> float:
    """Max over the n^d grid of the spectral norm of the Hessian of the
    kernel with half spectrum spec: max |fxx| in 1-d, and in 2-d the larger
    eigenvalue modulus 0.5 (|trace| + disc), without either eigenvalue field."""
    parts = _hessian_parts(spec, n)
    if len(parts) == 1:
        return float(np.max(np.abs(parts[0])))
    tr, disc = parts
    np.abs(tr, out=tr)
    tr += disc
    return 0.5 * float(tr.max())


# ---------------------------------------------------------------------------
# mollifier construction


def _bump_radial(r):
    out = np.zeros_like(r)
    inside = r < 1.0
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ri * ri))
    return out


def _sample_profile(kind, width, cut, grid):
    """Sample an unnormalized radial profile on the grid, given as
    (minimage_coords, r^2, r)."""
    _, r2, r = grid
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
    profile_width: float

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def spectrum(self) -> np.ndarray:
        """Real half spectrum of the table (an admissible mollifier is even),
        transformed once on first use and kept on the table (copied out of the
        complex transform, which is freed)."""
        t = self.table
        if t._spectrum is None:
            t._spectrum = t.fourier().real.copy()
        return t._spectrum

    def validate(self):
        """Check all admissibility invariants against the _VALIDATE_TOLS
        bounds; returns a dict of measured errors."""
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
        report["ok"] = report["min_value"] >= 0.0 and all(
            report[name] <= tol for name, tol in _VALIDATE_TOLS.items())
        return report


def _build_mollifier_table(kind, width, grid, cut_cap):
    """The unit-mass table of the profile at this width, and its second
    moment along the first axis (KernelTable.second_moment, bit for bit)."""
    xi = grid[0][0]
    n, d = xi.shape[0], len(grid[0])
    cut = min(5.0 * width, cut_cap) if kind == "truncated-gaussian" else width
    vals = _sample_profile(kind, width, cut, grid)
    m = vals.sum() * (1.0 / n) ** d
    if m <= 0:
        raise KernelError("kernel sampled to zero mass; increase table resolution")
    radius = cut if kind == "truncated-gaussian" else width
    table = KernelTable(vals / m, support_radius=radius)
    return table, float((table.values * xi * xi).sum() * table.h**d)


def make_mollifier(
    kind: str,
    scale: float,
    d: int = 1,
    second_moment_target: Optional[float] = None,
    table_points: Optional[int] = None,
) -> KernelFamily:
    """Construct an admissible mollifier at the given scale.

    With second_moment_target None the profile width is the scale itself and
    the achieved per-axis second moment is recorded as the target.  With a
    target (2 scale^2 is the Laplacian convention) the width is tuned until
    the tabulated moment is within 1e-9 relative of it: a fixed-point step
    width sqrt(target / m2) while it stays inside the bracket of measured
    widths and keeps halving the moment error, else the bracket's midpoint,
    or 1.3 times the width while no measured width overshoots.  A width past
    the kind's cap raises KernelEmbedError: the bump's support must stay
    inside the half-torus, and a gaussian wider than _GAUSSIAN_WIDTH_CAP is
    flat under its torus-capped cut.
    """
    if not (0.0 < scale < 0.5):
        raise KernelError(f"scale {scale} outside (0, 1/2)")
    n = table_points or DEFAULT_TABLE_POINTS[d]
    h = 1.0 / n
    cut_cap = 0.5 - 2.0 * h
    width_cap = cut_cap if kind == "compact-bump" else _GAUSSIAN_WIDTH_CAP
    # sampled once; only the profile's width varies
    xis = minimage_coords(n, d)
    r2 = sum(xi * xi for xi in xis)
    grid = (xis, r2, np.sqrt(r2))
    target = second_moment_target
    width = scale
    lo, hi = 0.0, math.inf  # widths whose moments fell short of / overshot the target
    err_last, m_max = math.inf, 0.0
    for _ in range(_MAX_TABLE_BUILDS):
        if width > width_cap:
            reach = "" if target is None else (
                f"; it cannot reach per-axis moment {target:.3e} inside the torus "
                f"(largest moment reached {m_max:.3e})")
            raise KernelEmbedError(
                f"{kind} width {width:.3f} exceeds its cap {width_cap:.3f}{reach}"
            )
        table, m2 = _build_mollifier_table(kind, width, grid, cut_cap)
        if target is None:
            target = m2
        err = abs(m2 - target)
        if err <= 1e-9 * max(target, 1e-12):
            break
        if m2 <= 0:
            raise KernelError("degenerate moment during normalization")
        m_max = max(m_max, m2)
        if m2 < target:
            lo = width
        else:
            hi = width
        step = width * math.sqrt(target / m2)
        if lo < step < hi and err <= 0.5 * err_last:
            width = step
        else:
            width = 0.5 * (lo + hi) if hi < math.inf else 1.3 * width
        err_last = err
    else:
        raise KernelError(
            f"moment normalization did not converge (target {target:.6e}, reached {m2:.6e})"
        )

    if width / h < 8.0:
        raise KernelResolutionError(
            f"only {width / h:.1f} samples across scale {width:.2e}; need >= 8"
        )
    return KernelFamily(
        kind=kind,
        scale=scale,
        d=d,
        second_moment_target=target,
        table=table,
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
        with R_hat unscaled (alpha = 1), a = (1 + 4 pi^2)^-k and b = (4 pi^2)^-k,
        and R^(1/2) against _HALF_RECONSTRUCTION_TOL; returns them and "ok"."""
        mag = np.sqrt(sum(k * k for k in freq_lattice(self.n, self.d)))
        sel = mag > 1.0
        m = mag[sel]
        spec = ((1.0 + k_squared(self.n, self.d)) ** (-self.k))[sel]
        lower = (1.0 + 4.0 * np.pi**2) ** (-self.k) / m ** (2 * self.k)
        upper = (4.0 * np.pi**2) ** (-self.k) / m**self.k
        report = {
            "positive": bool(np.all(self.spectrum > 0.0)),
            "lower_ok": bool(np.all(spec >= lower * (1 - 1e-12))),
            "upper_ok": bool(np.all(spec <= upper * (1 + 1e-12))),
            "half_reconstruction": self.half_reconstruction_error(),
        }
        report["ok"] = (report["positive"] and report["lower_ok"] and report["upper_ok"]
                        and report["half_reconstruction"] <= _HALF_RECONSTRUCTION_TOL)
        return report

    def half_reconstruction_error(self) -> float:
        half = self.half_table.fourier()
        conv = inverse_transform(half * half, self.n)
        return float(np.max(np.abs(conv - self.table.values)))


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
    families and the viscosity kernel, with the multipliers composed from
    their spectra and the objects the engines read, cached on first use.  The
    engines read m, eps_star and alpha from the set's schedule, and appendix-A
    mode from the set, only; dataclasses.replace(kset, schedule=...) is the
    set for another m or eps_star (eps, eps_tilde and alpha built the tables),
    and replace(kset, appendix_a=True) the appendix-A particle sums (it keeps
    R_alpha for the grid engines), each with empty caches."""

    schedule: ParameterSchedule
    omega: KernelFamily
    omega_tilde: KernelFamily
    viscosity: Optional[ViscosityKernel] = None
    # appendix-A mode: no viscosity addend in the particle sums, the pair
    # potential, the step bound or lambda; build_kernel_set then builds no
    # R_alpha, so the grid engines take R_alpha * rho = rho even at alpha > 0
    appendix_a: bool = False

    @property
    def n(self) -> int:
        return self.omega.table.n

    @property
    def d(self) -> int:
        return self.omega.table.d

    @property
    def spectra(self) -> tuple:
        """Real half spectra (omega_hat, omega_tilde_hat) of the families on the
        set's lattice (KernelFamily.spectrum)."""
        return self.omega.spectrum, self.omega_tilde.spectrum

    @property
    def w_hat(self) -> np.ndarray:
        """W_hat = ot_hat^2 (1 - o_hat)/eps^2, the interaction kernel's half
        spectrum, composed on each access."""
        o_hat, ot_hat = self.spectra
        return ot_hat * ot_hat * (1.0 - o_hat) / self.schedule.epsilon**2

    @property
    def viscosity_hat(self) -> np.ndarray:
        """R_hat, the viscosity kernel's half spectrum; a set built without
        R_alpha (at alpha = 0, or in appendix-A mode) raises."""
        if self.viscosity is None:
            raise KernelError("the viscosity term needs R_alpha, which a set built at alpha "
                              "= 0 lacks; build_kernel_set(..., appendix_a=True) drops it")
        return self.viscosity.spectrum

    @property
    def W(self) -> KernelTable:
        """W_eps = (ot*ot - o*ot*ot)/eps^2, the interaction kernel, tabulated
        on each access."""
        return KernelTable.from_spectrum(self.w_hat, self.n)

    @functools.cached_property
    def velocity_multipliers(self) -> tuple:
        """(power, linear, quadratic, masses) of the nonlocal potential at the
        set's schedule: power = (m/(m-1)) ot_hat and linear = W_hat + eps_star
        R_hat (R_hat = 1 unless alpha > 0 and the set carries R); at m = 2
        quadratic = power ot_hat - linear, minus the pair potential's U_hat,
        else None; masses = (M+, M-), the integrals of the positive and
        negative parts of the ot table, so that min(rho) M+ - max(rho) M-
        bounds rho*ot from below."""
        sched = self.schedule
        m = sched.m
        ot_hat = self.spectra[1]
        visc = self.viscosity_hat if sched.alpha > 0.0 and self.viscosity is not None else 1.0
        power = (m / (m - 1.0)) * ot_hat
        linear = self.w_hat + sched.epsilon_star * visc
        quadratic = power * ot_hat - linear if m == 2.0 else None
        table = self.omega_tilde.table
        cell = table.h**table.d
        masses = (float(np.maximum(table.values, 0.0).sum()) * cell,
                  -float(np.minimum(table.values, 0.0).sum()) * cell)
        return power, linear, quadratic, masses

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
        return replace(
            self,
            omega=replace(self.omega, table=KernelTable.from_spectrum(crops[0], n2)),
            omega_tilde=replace(self.omega_tilde, table=KernelTable.from_spectrum(crops[1], n2)),
            viscosity=visc,
        )

    def pair_spectrum(self) -> np.ndarray:
        """U_hat = W_hat - 2 ot_hat^2 + eps_star R_hat, the m=2 pair potential,
        without the R_hat term in appendix-A mode."""
        ot_hat = self.spectra[1]
        out = self.w_hat - 2.0 * (ot_hat * ot_hat)
        if not self.appendix_a:
            out += self.schedule.epsilon_star * self.viscosity_hat
        return out

    def pair_kernel(self) -> KernelTable:
        """The table of pair_spectrum, which keeps that spectrum."""
        return KernelTable.from_spectrum(self.pair_spectrum(), self.n)

    @functools.cached_property
    def particle_mesh(self) -> tuple:
        """(mesh, multipliers): the spectral.ParticleMesh of the particle sums
        and the particle velocity's addend multipliers on its box, each
        cropped (ParticleMesh.crop) and then scaled by the schedule:
        "interaction" -W_hat, "aggregation" 2 ot_hat^2 at m = 2 and
        (m/(m-1)) ot_hat otherwise, and, outside appendix-A mode,
        "viscosity" -eps_star R_hat.  At m = 2 the box is cut at the tail of
        the pair potential U, read from pair_kernel's spectrum and kept as
        "U" for the energy (U_hat is minus the addends' sum); otherwise at
        ot's tail, and "smoothing" is ot_hat, the smoothed density's.  A set
        without R_hat raises outside appendix-A mode (viscosity_hat)."""
        sched = self.schedule
        ot_hat = self.spectra[1]
        specs = {"interaction": (-1.0, self.w_hat)}  # name: (scale, spectrum)
        if not self.appendix_a:
            specs["viscosity"] = (-sched.epsilon_star, self.viscosity_hat)
        if sched.m == 2.0:
            cut = self.pair_kernel().spectrum
            specs.update(U=(1.0, cut), aggregation=(2.0, ot_hat * ot_hat))
        else:
            cut = ot_hat
            specs.update(smoothing=(1.0, cut), aggregation=(sched.m / (sched.m - 1.0), cut))
        mesh = ParticleMesh(self.d, tail_cutoff(cut, self.n))
        return mesh, {name: scale * mesh.crop(spec) for name, (scale, spec) in specs.items()}

    @functools.cached_property
    def force_lipschitz(self) -> float:
        """A Lipschitz bound of the particle velocity field at the set's m,
        eps_star and mode (stable_dt is 0.5 over it).  At m = 2 the particles
        follow -grad U, and the bound is sup |Hess U| of pair_spectrum: one
        Hessian, never above the sum of the addends' Hessian bounds (3.9x
        below it on fig1-2d).  Otherwise it is that sum over the velocity's
        addends.  A set without R_hat raises outside appendix-A mode, as
        particle_mesh does."""
        m, n = self.schedule.m, self.n
        if m == 2.0:
            return hessian_inf_norm(self.pair_spectrum(), n)
        ot_hat = self.spectra[1]
        L = hessian_inf_norm(self.w_hat, n)
        rho_max = float(self.omega_tilde.table.values.max())
        grad_max = max(float(np.max(np.abs(g))) for g in gradient(ot_hat, n))
        L += (m / (m - 1.0)) * (
            hessian_inf_norm(ot_hat, n) * rho_max ** (m - 1.0)
            + (m - 1.0) * rho_max ** max(m - 2.0, 0.0) * grad_max**2
        )
        if not self.appendix_a:
            L += self.schedule.epsilon_star * hessian_inf_norm(self.viscosity_hat, n)
        return L


def build_kernel_set(
    schedule: ParameterSchedule,
    kind: str = "compact-bump",
    table_points: Optional[int] = None,
    omega_moment: Optional[float] = None,
    tilde_moment: Optional[float] = None,
    viscosity_k: float = 4.0,
    appendix_a: bool = False,
) -> KernelSet:
    """The kernel set of a schedule on the n^d table grid: omega at scale eps
    and omega_tilde at scale eps_tilde, each at the per-axis second moment
    given (make_mollifier's second_moment_target; None keeps the natural
    width), and R_alpha when alpha > 0 outside appendix-A mode (appendix_a,
    the set's mode: KernelSet)."""
    d = schedule.d
    if not schedule.epsilon_tilde < 0.5:
        raise KernelError(
            f"epsilon_tilde {schedule.epsilon_tilde:.4g} is not below 1/2, the largest "
            f"mollifier scale; the default epsilon_tilde = epsilon^(1/(d+6)) is below 1/2 "
            f"only for epsilon < 2^-(d+6) = {0.5 ** (d + 6):.4g}, so lower epsilon or set "
            f"epsilon_tilde and epsilon_star"
        )
    n = table_points or DEFAULT_TABLE_POINTS[d]
    omega = make_mollifier(kind, schedule.epsilon, d, omega_moment, n)
    omega_tilde = make_mollifier(kind, schedule.epsilon_tilde, d, tilde_moment, n)
    viscosity = None
    if schedule.alpha > 0.0 and not appendix_a:
        viscosity = make_viscosity_kernel(schedule.alpha, k=viscosity_k, d=d, table_points=n)
    return KernelSet(schedule=schedule, omega=omega, omega_tilde=omega_tilde, viscosity=viscosity,
                     appendix_a=appendix_a)


def lambda_convexity_constant(kernels: KernelSet) -> float:
    """Geodesic-convexity modulus of the pair interaction energy (always <= 0):
    minus the max-norm of the negative part of the pair kernel's Hessian,
    computed from its spectrum on the table grid (KernelSet.pair_spectrum,
    without the viscosity term in appendix-A mode): the pair potential the
    particles integrate."""
    if kernels.schedule.alpha == 0.0:
        raise ValueError("lambda undefined at alpha=0: viscosity degenerates to local diffusion")
    eigs = hessian_eigs(kernels.pair_spectrum(), kernels.n)
    return float(min(0.0, eigs[0].min()))


# ---------------------------------------------------------------------------
# export


def export_kernel_csv(kernel, path):
    """Write a kernel table as CSV: coordinates, value, and the gradient
    components at the nodes of the trigonometric interpolant of the kernel's
    spectrum (spectral.gradient), the spectrum periodic_convolve reads."""
    table = kernel.table if hasattr(kernel, "table") else kernel
    cols = [np.broadcast_to(xi, table.values.shape).ravel()
            for xi in minimage_coords(table.n, table.d)]
    cols.append(table.values.ravel())
    cols.extend(g.ravel() for g in gradient(kernel.spectrum, table.n))
    header = (
        [f"x{i + 1}" for i in range(table.d)]
        + ["value"]
        + [f"grad{i + 1}" for i in range(table.d)]
    )
    np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",", newline="\r\n",
               header=",".join(header), comments="")
