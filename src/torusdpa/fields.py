"""Periodic grid fields, nonlocal operators, and Lyapunov functionals.

A GridField holds node values on the uniform n^d grid of the unit torus
(node j at x = j*h, h = 1/n).  Convolutions are circular and FFT-based;
the nonlocal diffusion operator, its dissipation quadratic form, the
power-law internal energy, the full free energy, kernel density estimates
of particle clouds, and the nonlocal velocity field (one potential
spectrum built from the kernel set's cached spectra) all live here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .kernels import KernelFamily, KernelSet
from .spectral import (
    face_grad_multipliers,
    forward_transform,
    grad_multipliers,
    gradient,
    inner,
    inverse_transform,
    minimage_coords,
    spline_stencil,
    spline_symbol,
    spread,
)

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
    "check_kde_size",
    "velocity_field_nl",
    "save_gridfield",
    "load_gridfield",
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
        """The field of fn(x_1, ..., x_d) at the grid nodes."""
        x = np.arange(n) / n
        return cls(np.asarray(fn(*np.meshgrid(*(x,) * d, indexing="ij")), dtype=float))


def _spectra_on(kernels: KernelSet, f: GridField) -> tuple:
    """The set's mollifier spectra, checked against the field's grid."""
    if (f.n, f.d) != (kernels.n, kernels.d):
        raise ValueError(f"kernel set on the {kernels.n}^{kernels.d} grid, field on {f.n}^{f.d}")
    return kernels.spectra


def periodic_convolve(f: GridField, kernel) -> GridField:
    """Circular convolution with a kernel (a KernelTable, KernelFamily or
    ViscosityKernel) on the field's grid, by the kernel's spectrum."""
    if (kernel.n, kernel.d) != (f.n, f.d):
        raise ValueError("periodic_convolve: grid mismatch")
    return GridField(inverse_transform(forward_transform(f.values) * kernel.spectrum, f.n))


def B_eps(f: GridField, omega: KernelFamily, epsilon: float) -> GridField:
    """Nonlocal diffusion operator (f - f*omega)/eps^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    conv = periodic_convolve(f, omega)
    return GridField((f.values - conv.values) / epsilon**2)


def dissipation_D_eps(f: GridField, omega, epsilon: float) -> float:
    """Dissipation quadratic form
    D = (1/eps^2) sum_y omega(y) h^d sum_x (f(x) - f(x - y))^2 h^d,
    evaluated by Parseval as (2/eps^2) sum_k (omega_hat(0) - Re omega_hat(k)) |f_hat(k)|^2.

    The form equals 2<B_eps f, f>; oracles.direct_double_sum is the direct
    double sum that tests compare against.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if (omega.n, omega.d) != (f.n, f.d):
        raise ValueError("dissipation_D_eps: grid mismatch")
    ohat = omega.spectrum.real
    fhat = forward_transform(f.values)
    return 2.0 * inner((ohat.flat[0] - ohat) * fhat, fhat, f.n) / epsilon**2


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

    @staticmethod
    def header(d: int) -> list:
        """The column names of row() for a field on the d-torus."""
        return ["t", "F_eps_alpha", "D_eps", "E_m", "entropy",
                *(f"mean_x{i + 1}" for i in range(d)), "step_dissipation"]

    def row(self):
        return [self.t, self.F_eps_alpha, self.D_eps, self.E_m, self.entropy,
                *self.mean_position.tolist(), self.step_dissipation]


def free_energy(
    rho: GridField,
    kernels: KernelSet,
    t: float = 0.0,
) -> EnergyReport:
    """Evaluate F_{eps,alpha} and companion diagnostics for a density field,
    at the kernel set's schedule."""
    schedule = kernels.schedule
    _, ot_hat = _spectra_on(kernels, rho)
    rho_hat = forward_transform(rho.values)
    smoothed = GridField(inverse_transform(ot_hat * rho_hat, rho.n))
    D = dissipation_D_eps(smoothed, kernels.omega, schedule.epsilon)
    Em = energy_E_m(GridField(np.maximum(smoothed.values, 0.0)), schedule.m)
    if schedule.alpha > 0.0 and kernels.viscosity is not None:
        half = GridField(inverse_transform(np.sqrt(kernels.viscosity.spectrum) * rho_hat, rho.n))
    else:
        half = rho  # alpha = 0 convention: R_alpha * rho = rho
    E2h = energy_E_m(GridField(np.maximum(half.values, 0.0)), 2.0)
    F = 0.25 * D - Em + 0.5 * schedule.epsilon_star * E2h
    v = velocity_field_nl(rho, kernels)
    diss = float((rho.values * np.sum(v * v, axis=0)).sum() * rho.h**rho.d)
    return EnergyReport(
        t=t,
        F_eps_alpha=F,
        D_eps=D,
        E_m=Em,
        entropy=entropy(rho),
        mean_position=circular_mean(rho),
        step_dissipation=diss,
    )


def check_kde_size(n: int, table_n: int):
    """Raise ValueError unless the kde grid size n divides the kernel table
    size, which kde_density needs."""
    if n <= 0 or table_n % n:
        raise ValueError(f"kde grid n = {n} does not divide the kernel table size "
                         f"{table_n}; choose a grid size that divides it")


def kde_density(state, kernel: KernelFamily, n: int) -> GridField:
    """Smoothed empirical measure (1/N) sum_i S(x - X_i) on the n^d grid, with
    S the cubic B-spline through the kernel's table, exactly.

    n must divide the table size n_t (check_kde_size), so node g of the grid
    is node q g of the table lattice, q = n_t/n.  With S(x) = sum_j c_j
    B(n_t x - j), the sum at node q g is the circular convolution (c * s)(q g)
    of the spline coefficients c with s, the particles' B-spline spread on
    the table lattice: one forward transform of s, the spectrum of c (the
    kernel's spectrum over the spline symbol), one inverse transform, read
    at stride q.  A particle on a node reproduces the kernel table.
    """
    positions = np.atleast_2d(state.positions if hasattr(state, "positions") else state)
    N, d = positions.shape
    nt = kernel.table.n
    check_kde_size(n, nt)
    s_hat = forward_transform(spread(spline_stencil(positions, nt, d), np.full(N, 1.0 / N)))
    s_hat *= kernel.spectrum / spline_symbol(nt, d) * float(nt) ** d
    vals = inverse_transform(s_hat, nt)
    return GridField(vals[(slice(None, None, nt // n),) * d].copy())


def velocity_field_nl(rho: GridField, kernels: KernelSet, at_faces: bool = False) -> np.ndarray:
    """Velocity grad(phi) of the nonlocal continuity equation, shape (d, *grid),
    from the potential spectrum (R_hat = 1 when alpha = 0)
        phi_hat = (m/(m-1)) ot_hat F[max(rho*ot, 0)^(m-1)]
                  - (ot_hat^2 (1 - o_hat)/eps^2 + eps_star R_hat) rho_hat
    in 3 + d transforms, with m, eps_star and the multipliers from the kernel
    set (KernelSet.velocity_multipliers).  At m = 2 on a field whose bound
    min(rho) M+ - max(rho) M- is positive, rho*ot has no negative cell, the
    clip is the identity and phi_hat = (2 ot_hat^2 - W_hat - eps_star R_hat)
    rho_hat = -U_hat rho_hat, the particles' pair potential: 1 + d
    transforms.  The d gradient transforms are one stacked pass
    (spectral.gradient).  Component i is sampled at the nodes, or with
    at_faces at the faces x + h/2 e_i.
    """
    _, ot_hat = _spectra_on(kernels, rho)
    n, m = rho.n, kernels.schedule.m
    power_mult, linear, quadratic, (pos_mass, neg_mass) = kernels.velocity_multipliers
    vals = rho.values
    rho_hat = forward_transform(vals)
    if quadratic is not None and float(vals.min()) * pos_mass - float(vals.max()) * neg_mass > 0.0:
        phi_hat = rho_hat
        phi_hat *= quadratic
    else:
        power = inverse_transform(ot_hat * rho_hat, n)
        np.maximum(power, 0.0, out=power)
        power **= m - 1.0
        phi_hat = forward_transform(power)
        phi_hat *= power_mult
        rho_hat *= linear
        phi_hat -= rho_hat
    mults = (face_grad_multipliers if at_faces else grad_multipliers)(n, rho.d)
    return gradient(phi_hat, n, mults)


# ---------------------------------------------------------------------------
# field I/O


def save_gridfield(f: GridField, path):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<iid", f.d, f.n, f.mass()))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_gridfield(path) -> GridField:
    """Read a save_gridfield file, checking its header, its length (8 n^d
    bytes of values after the header) and its declared mass."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC):
        raise ValueError(f"not a GridField file: {path}")
    start = len(_MAGIC) + 16
    if len(data) < start:
        raise ValueError(f"{path}: GridField header cut short ({len(data)} of {start} bytes)")
    d, n, mass = struct.unpack_from("<iid", data, len(_MAGIC))
    if d not in (1, 2) or n < 1:
        raise ValueError(f"{path}: GridField header gives d = {d}, n = {n}")
    if len(data) - start != 8 * n**d:
        raise ValueError(f"{path}: GridField body holds {len(data) - start} bytes, "
                         f"not the {8 * n**d} of {n}^{d} values")
    f = GridField(np.frombuffer(data, dtype="<f8", offset=start).reshape((n,) * d).copy())
    if abs(f.mass() - mass) > 1e-10 + 1e-10 * abs(mass):
        raise ValueError(f"{path}: GridField mass does not match header")
    return f
