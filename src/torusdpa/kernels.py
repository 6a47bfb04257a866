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
  spectra o_hat and ot_hat are transformed once, and R_hat; every other
  kernel is a multiplier on them (KernelSet.multiplier): the interaction
  kernel W_hat = ot_hat^2 (1 - o_hat)/eps^2, the squared smoothing kernel
  ot_hat^2, the particles' pair potential U_hat = W_hat - 2 ot_hat^2
  (+ eps_star R_hat) and the grid velocity's linear part W_hat + eps_star
  R_hat.  The W and U tables are built when asked for, never kept.  Hessian
  bounds are read off the multipliers, a coarser set crops the spectra, and
  the particle sums run on a spectral.ParticleMesh that holds the
  multipliers cropped to its box (KernelSet.particle_mesh).

A kernel is read only through its spectrum: the particle sums through the
particle mesh's multipliers, the grid operators (fields.periodic_convolve)
and the kernel density estimate (fields.kde_density) as multipliers, the
step bounds through Hessians and gradients of the spectra, and the CSV
export through the spectral node gradient (spectral.gradient).  A
KernelTable holds the samples, for the moments and the export, and keeps the
spectrum it was made from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
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


def _radial_grid(n, d):
    """(minimum-image coordinates, r^2, r) of the n^d grid nodes; the
    coordinates are sparse (one axis each) and broadcast like minimage_coords."""
    x = minimage_coords(n, 1)[0]
    xis = (x,) if d == 1 else (x[:, None], x[None, :])
    r2 = sum(xi * xi for xi in xis)
    return xis, r2, np.sqrt(r2)


def _sample_profile(kind, width, cut, grid):
    """Sample an unnormalized radial profile on the grid (_radial_grid)."""
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
    _spectrum: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def spectrum(self) -> np.ndarray:
        """Real half spectrum of the table (an admissible mollifier is even),
        transformed once on first use (copied out of the complex transform,
        which is freed)."""
        if self._spectrum is None:
            self._spectrum = self.table.fourier().real.copy()
        return self._spectrum

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
    grid = _radial_grid(n, d)  # sampled once; only the profile's width varies
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
    families and the viscosity kernel, with the multipliers composed from
    their spectra and the caches the particle and grid engines fill."""

    schedule: ParameterSchedule
    omega: KernelFamily
    omega_tilde: KernelFamily
    viscosity: Optional[ViscosityKernel] = None
    _stable_cache: dict = field(default_factory=dict)  # particles.stable_dt's bounds
    _meshes: dict = field(default_factory=dict)  # particle_mesh's meshes and multipliers
    _velocity: dict = field(default_factory=dict)  # velocity_multipliers per (m, eps_star, R)

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
    def W(self) -> KernelTable:
        """W_eps = (ot*ot - o*ot*ot)/eps^2, the interaction kernel, tabulated
        on each access."""
        return KernelTable.from_spectrum(self.multiplier(W=1.0), self.n)

    def velocity_multipliers(self, m: float, epsilon_star: float, viscosity: bool) -> tuple:
        """((m/(m-1)) ot_hat, W_hat + eps_star R_hat), the two multipliers of
        the nonlocal potential (R_hat = 1 without viscosity); built on first
        use per (m, eps_star, viscosity)."""
        key = (m, epsilon_star, bool(viscosity))
        if key not in self._velocity:
            visc = self.viscosity.spectrum if viscosity else 1.0
            self._velocity[key] = ((m / (m - 1.0)) * self.spectra[1],
                                   self.multiplier(W=1.0) + epsilon_star * visc)
        return self._velocity[key]

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
            omega=replace(self.omega, table=KernelTable.from_spectrum(crops[0], n2),
                          _spectrum=crops[0]),
            omega_tilde=replace(self.omega_tilde, table=KernelTable.from_spectrum(crops[1], n2),
                                _spectrum=crops[1]),
            viscosity=visc,
        )

    def pair_spectrum(self, include_viscosity: bool = True) -> np.ndarray:
        """U_hat = W_hat - 2 ot_hat^2 [+ eps_star R_hat], the m=2 pair potential."""
        eps_star = self.schedule.epsilon_star if include_viscosity else 0.0
        return self.multiplier(W=1.0, smooth2=-2.0, viscosity=eps_star)

    def pair_kernel(self, include_viscosity: bool = True) -> KernelTable:
        """The table of pair_spectrum, which keeps that spectrum."""
        return KernelTable.from_spectrum(self.pair_spectrum(include_viscosity), self.n)

    def particle_mesh(self, include_viscosity: bool = True, m: float = 2.0):
        """(mesh, multipliers): the spectral.ParticleMesh of the particle sums
        and their multipliers on its box, divided by the kernel's transform
        squared (ParticleMesh.crop); built on first use per viscosity flag and
        m = 2 or not.  For m = 2 the box is cut at U's tail, U read from
        pair_kernel's spectrum, and the multipliers are "U", "W", "smooth2"
        and "viscosity"; for other m it is cut at ot's tail and they are
        "omega_tilde", "W" and "viscosity" (R_hat unscaled, present only
        with include_viscosity)."""
        key = (bool(include_viscosity), m == 2.0)
        if key not in self._meshes:
            specs = {"W": self.multiplier(W=1.0)}
            if include_viscosity:
                specs["viscosity"] = self.multiplier(viscosity=1.0)
            if m == 2.0:
                specs["U"] = np.real(self.pair_kernel(include_viscosity).spectrum)
                specs["smooth2"] = self.multiplier(smooth2=1.0)
                cut = specs["U"]
            else:
                cut = specs["omega_tilde"] = self.spectra[1]
            mesh = ParticleMesh(self.d, tail_cutoff(cut, self.n))
            self._meshes[key] = (mesh, {name: mesh.crop(spec) for name, spec in specs.items()})
        return self._meshes[key]


def build_kernel_set(
    schedule: ParameterSchedule,
    kind: str = "compact-bump",
    table_points: Optional[int] = None,
    omega_moment: Optional[float] = None,
    tilde_moment: Optional[float] = None,
    viscosity_k: float = 4.0,
    with_viscosity: bool = True,
) -> KernelSet:
    """The kernel set of a schedule on the n^d table grid: omega at scale eps
    and omega_tilde at scale eps_tilde, each at the per-axis second moment
    given (make_mollifier's second_moment_target; None keeps the natural
    width), and R_alpha when with_viscosity and alpha > 0."""
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
    if with_viscosity and schedule.alpha > 0.0:
        viscosity = make_viscosity_kernel(schedule.alpha, k=viscosity_k, d=d, table_points=n)
    return KernelSet(schedule=schedule, omega=omega, omega_tilde=omega_tilde, viscosity=viscosity)


def lambda_convexity_constant(kernels: KernelSet) -> float:
    """Geodesic-convexity modulus of the pair interaction energy (always <= 0):
    minus the max-norm of the negative part of the pair kernel's Hessian,
    computed from its spectrum on the table grid, with the viscosity term
    only when the set carries it (not in appendix-A mode): the pair
    potential the particles integrate."""
    if kernels.schedule.alpha == 0.0:
        raise ValueError("lambda undefined at alpha=0: viscosity degenerates to local diffusion")
    eigs = hessian_eigs(kernels.pair_spectrum(kernels.viscosity is not None), kernels.n)
    return float(min(0.0, eigs[0].min()))


# ---------------------------------------------------------------------------
# export


def export_kernel_csv(kernel, path):
    """Write a kernel table as CSV: coordinates, value, and the gradient
    components at the nodes of the trigonometric interpolant of the kernel's
    spectrum (spectral.gradient), the spectrum periodic_convolve reads."""
    table = kernel.table if hasattr(kernel, "table") else kernel
    xis = minimage_coords(table.n, table.d)
    cols = [xi.ravel() for xi in xis]
    cols.append(table.values.ravel())
    cols.extend(g.ravel() for g in gradient(kernel.spectrum, table.n))
    header = (
        [f"x{i + 1}" for i in range(table.d)]
        + ["value"]
        + [f"grad{i + 1}" for i in range(table.d)]
    )
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")
