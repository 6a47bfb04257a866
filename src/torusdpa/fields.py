"""Periodic grid fields, nonlocal operators, and Lyapunov functionals.

A GridField holds node values on the uniform n^d grid of the unit torus
(node j at x = j*h, h = 1/n).  Convolutions are circular and FFT-based;
the nonlocal diffusion operator, its dissipation quadratic form, the
power-law internal energy, the full free energy, kernel density estimates
of particle clouds, and the nonlocal velocity field all live here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import min_image
from .kernels import KernelFamily, KernelSet, KernelTable, ParameterSchedule
from .spectral import TILE_POINTS, grad_multipliers, minimage_coords

__all__ = [
    "GridField",
    "EnergyReport",
    "periodic_convolve",
    "B_eps",
    "dissipation_D_eps",
    "energy_E_m",
    "entropy",
    "free_energy",
    "kde_density",
    "velocity_field_nl",
    "spectral_grad",
    "save_gridfield",
    "load_gridfield",
    "gridfield_to_csv",
]

_MAGIC = b"TDGF01\n"


@dataclass
class GridField:
    """Scalar field on the periodic n^d grid."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridField: non-finite values")

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def mass(self) -> float:
        return float(self.values.sum() * self.h**self.d)

    def copy(self) -> "GridField":
        return GridField(self.values.copy())

    @classmethod
    def constant(cls, value: float, n: int, d: int = 1) -> "GridField":
        return cls(np.full((n,) * d, float(value)))

    @classmethod
    def from_function(cls, fn, n: int, d: int = 1) -> "GridField":
        x = np.arange(n) / n
        if d == 1:
            return cls(np.asarray(fn(x), dtype=float))
        X, Y = np.meshgrid(x, x, indexing="ij")
        return cls(np.asarray(fn(X, Y), dtype=float))

    def check_density(self, mass: float = 1.0, tol: float = 1e-10, neg_tol: float = -1e-12):
        if self.values.min() < neg_tol:
            raise ValueError(f"density has negative cells (min {self.values.min():.3e})")
        if abs(self.mass() - mass) > tol:
            raise ValueError(f"density mass {self.mass():.12f} != declared {mass}")


def _kernel_table(kernel) -> KernelTable:
    return kernel.table if hasattr(kernel, "table") else kernel


def periodic_convolve(f: GridField, kernel) -> GridField:
    """Circular convolution with a tabulated kernel via the DFT."""
    table = _kernel_table(kernel)
    if table.n != f.n or table.d != f.d:
        raise ValueError("periodic_convolve: grid mismatch")
    spec = np.fft.fftn(f.values) * table.fourier()
    return GridField(np.real(np.fft.ifftn(spec)))


def spectral_grad(f: GridField):
    """Gradient components of a periodic field (Fourier multipliers)."""
    fhat = np.fft.fftn(f.values)
    return [np.real(np.fft.ifftn(m * fhat)) for m in grad_multipliers(f.n, f.d)]


def B_eps(f: GridField, omega: KernelFamily, epsilon: float) -> GridField:
    """Nonlocal diffusion operator (f - f*omega)/eps^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    conv = periodic_convolve(f, omega)
    return GridField((f.values - conv.values) / epsilon**2)


def _support_offsets(table: KernelTable):
    """Indices of the nonzero kernel nodes, as lists of per-axis shifts."""
    nz = np.nonzero(table.values != 0.0)
    return nz


def dissipation_D_eps(f: GridField, omega, epsilon: float) -> float:
    """Dissipation quadratic form: double sum of weighted squared increments.

    Direct summation truncated to the kernel support; an FFT-free route kept
    independent of B_eps so the two sides of the identity D = 2<B f, f> are
    genuinely distinct computations.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    table = _kernel_table(omega)
    if table.n != f.n or table.d != f.d:
        raise ValueError("dissipation_D_eps: grid mismatch")
    vals = f.values
    w = table.h**table.d
    cell = f.h**f.d
    nz = _support_offsets(table)
    total = 0.0
    if f.d == 1:
        for s in nz[0]:
            diff = vals - np.roll(vals, s)
            total += table.values[s] * float(np.dot(diff, diff))
    else:
        for s1, s2 in zip(*nz):
            diff = vals - np.roll(np.roll(vals, s1, axis=0), s2, axis=1)
            total += table.values[s1, s2] * float((diff * diff).sum())
    return total * w * cell / epsilon**2


def energy_E_m(f: GridField, m: float) -> float:
    """Internal energy (1/(m-1)) * integral of f^m."""
    if m <= 1:
        raise ValueError("m must exceed 1")
    if f.values.min() < -1e-12:
        raise ValueError(f"negative cells beyond tolerance (min {f.values.min():.3e})")
    vals = np.maximum(f.values, 0.0)
    return float((vals**m).sum() * f.h**f.d / (m - 1.0))


def entropy(f: GridField) -> float:
    """Phi = integral of f (log f - 1), with 0 log 0 = 0."""
    vals = f.values
    out = np.zeros_like(vals)
    mask = vals > 1e-300
    v = vals[mask]
    out[mask] = v * (np.log(v) - 1.0)
    return float(out.sum() * f.h**f.d)


def circular_mean(f: GridField) -> np.ndarray:
    """Per-axis circular mean position of a density field."""
    xis = minimage_coords(f.n, f.d)
    w = f.h**f.d
    out = []
    for xi in xis:
        z = np.sum(f.values * np.exp(2j * np.pi * xi)) * w
        out.append(float(np.angle(z) / (2 * np.pi) % 1.0))
    return np.array(out)


@dataclass
class EnergyReport:
    """One sample of the Lyapunov diagnostics along a trajectory."""

    t: float
    F_eps_alpha: float
    D_eps: float
    E_m: float
    entropy: float
    mean_position: np.ndarray
    step_dissipation: float
    d_term: float = 0.0
    e_term: float = 0.0
    visc_term: float = 0.0

    def identity_error(self) -> float:
        """Recomputed decomposition identity F = d_term - e_term + visc_term."""
        return abs(self.F_eps_alpha - (self.d_term - self.e_term + self.visc_term))

    def row(self):
        return [self.t, self.F_eps_alpha, self.D_eps, self.E_m, self.entropy,
                *self.mean_position.tolist(), self.step_dissipation]


def free_energy(
    rho: GridField,
    schedule: ParameterSchedule,
    kernels: KernelSet,
    t: float = 0.0,
    with_velocity: bool = True,
) -> EnergyReport:
    """Evaluate F_{eps,alpha} and companion diagnostics for a density field."""
    smoothed = periodic_convolve(rho, kernels.omega_tilde)
    D = dissipation_D_eps(smoothed, kernels.omega, schedule.epsilon)
    Em = energy_E_m(GridField(np.maximum(smoothed.values, 0.0)), schedule.m)
    if schedule.alpha > 0.0 and kernels.viscosity is not None:
        half = periodic_convolve(rho, kernels.viscosity.half_table)
    else:
        half = rho  # alpha = 0 convention: R_alpha * rho = rho
    E2h = energy_E_m(GridField(np.maximum(half.values, 0.0)), 2.0)
    d_term = 0.25 * D
    visc_term = 0.5 * schedule.epsilon_star * E2h
    F = d_term - Em + visc_term
    diss = 0.0
    if with_velocity:
        v = velocity_field_nl(rho, schedule, kernels)
        speed2 = np.sum(v * v, axis=0)
        diss = float((rho.values * speed2).sum() * rho.h**rho.d)
    return EnergyReport(
        t=t,
        F_eps_alpha=F,
        D_eps=D,
        E_m=Em,
        entropy=entropy(rho),
        mean_position=circular_mean(rho),
        step_dissipation=diss,
        d_term=d_term,
        e_term=Em,
        visc_term=visc_term,
    )


def kde_density(state, kernel: KernelFamily, n: int) -> GridField:
    """Smoothed empirical measure (1/N) sum_i omega_tilde(x - X_i) on a grid.

    Evaluates the tabulated kernel at exact particle offsets (no deposition),
    so a particle sitting on a node reproduces the kernel table exactly.
    Tiles of grid nodes against all particles hold about TILE_POINTS
    offsets each, and each node's value is one sum over the particles.
    """
    positions = np.atleast_2d(state.positions if hasattr(state, "positions") else state)
    N, d = positions.shape
    table = kernel.table
    x = np.arange(n) / n
    nodes = np.stack([c.ravel() for c in np.meshgrid(*([x] * d), indexing="ij")])
    PT = np.ascontiguousarray(positions.T)
    out = np.empty(n**d)
    rows = max(1, TILE_POINTS // N)  # grid nodes per tile
    for lo in range(0, n**d, rows):
        delta = min_image(nodes[:, lo : lo + rows, None], PT[:, None, :])
        out[lo : lo + rows] = table.value_at(np.moveaxis(delta, 0, -1)).sum(axis=1)
    return GridField(out.reshape((n,) * d) / N)


def velocity_field_nl(
    rho: GridField,
    schedule: ParameterSchedule,
    kernels: KernelSet,
    m: Optional[float] = None,
) -> np.ndarray:
    """Velocity of the nonlocal continuity equation, shape (d, *grid).

    v = grad( -B_eps[rho*ot*ot] + (m/(m-1)) ot*(rho*ot)^(m-1) - eps_star*rho*R_alpha ),
    with the alpha = 0 convention rho*R_alpha = rho.
    """
    m = schedule.m if m is None else m
    smoothed2 = periodic_convolve(rho, kernels.smooth2)
    bterm = B_eps(smoothed2, kernels.omega, schedule.epsilon)
    rt = periodic_convolve(rho, kernels.omega_tilde)
    power = np.maximum(rt.values, 0.0) ** (m - 1.0)
    agg = periodic_convolve(GridField(power), kernels.omega_tilde)
    if schedule.alpha > 0.0 and kernels.viscosity is not None:
        visc = periodic_convolve(rho, kernels.viscosity).values
    else:
        visc = rho.values
    potential = GridField(
        -bterm.values + (m / (m - 1.0)) * agg.values - schedule.epsilon_star * visc
    )
    return np.stack(spectral_grad(potential))


# ---------------------------------------------------------------------------
# field I/O


def save_gridfield(f: GridField, path):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<iid", f.d, f.n, f.mass()))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_gridfield(path) -> GridField:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a GridField file: {path}")
        d, n, mass = struct.unpack("<iid", fh.read(16))
        vals = np.frombuffer(fh.read(8 * n**d), dtype="<f8").reshape((n,) * d)
        f = GridField(vals.copy())
        if abs(f.mass() - mass) > 1e-10 + 1e-10 * abs(mass):
            raise ValueError("GridField mass does not match header")
        return f


def gridfield_to_csv(f: GridField, path):
    x = np.arange(f.n) / f.n
    if f.d == 1:
        data = np.column_stack([x, f.values])
        header = "x1,value"
    else:
        X, Y = np.meshgrid(x, x, indexing="ij")
        data = np.column_stack([X.ravel(), Y.ravel(), f.values.ravel()])
        header = "x1,x2,value"
    np.savetxt(path, data, delimiter=",", header=header, comments="")
