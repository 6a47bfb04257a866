"""Finite-volume solver for the nonlocal continuity equation.

Fluxes are rho * v upwinded per face, which keeps the update conservative
and positivity-preserving under the CFL bound.  The face velocities are
grad(phi) straight from the potential spectrum (fields.velocity_field_nl)

    phi_hat = (m/(m-1)) ot_hat F[max(rho*ot, 0)^(m-1)]
              - (ot_hat^2 (1 - o_hat)/eps^2 + eps_star R_hat) rho_hat

through a gradient multiplier that carries the half-cell shift, so a step
takes 3 + d transforms.  An optional artificial viscosity nu * lap rho is
applied implicitly through a Fourier multiplier (2 more transforms); runs
over a decreasing nu sequence exhibit the vanishing-viscosity continuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import GridField, free_energy, velocity_field_nl
from .kernels import KernelSet, ParameterSchedule
from .spectral import forward_transform, inverse_transform, k_squared

__all__ = ["step_nonlocal", "run_nonlocal", "NonlocalRun", "NonlocalTrace"]

# run_nonlocal steps at this fraction of the CFL bound
CFL_SAFETY = 0.45


def _upwind_divergence(rho_vals: np.ndarray, vfaces) -> np.ndarray:
    """Divergence of upwind fluxes; conservative (telescoping) by construction.
    The flux through face i + 1/2 takes rho from cell i where v >= 0 and
    from cell i + 1 where v < 0; the periodic wrap is sliced, not rolled."""
    n = rho_vals.shape[0]
    h = 1.0 / n
    div = np.zeros_like(rho_vals)
    flux, work = np.empty_like(rho_vals), np.empty_like(rho_vals)
    for ax, vf in enumerate(vfaces):
        rho, v, f, w, out = (a.swapaxes(0, ax) for a in (rho_vals, vf, flux, work, div))
        np.maximum(v, 0.0, out=f)
        f *= rho
        np.minimum(v, 0.0, out=w)
        w[:-1] *= rho[1:]
        w[-1:] *= rho[:1]
        f += w
        np.subtract(f[1:], f[:-1], out=w[1:])
        np.subtract(f[:1], f[-1:], out=w[:1])
        w /= h
        out += w
    return div


def _face_velocities(rho: GridField, schedule, kernels) -> tuple:
    """Face velocities of the current state and its CFL bound h/(2 d ||v||_inf)."""
    vfaces = velocity_field_nl(rho, schedule, kernels, at_faces=True)
    vmax = max(float(vfaces.max()), -float(vfaces.min()))
    return vfaces, (rho.h / (2.0 * rho.d * vmax) if vmax > 0 else np.inf)


def _step(rho: GridField, vfaces, dt_cfl: float, dt: float, nu: float, k2) -> GridField:
    """The step body: upwind transport, then implicit nu-diffusion."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if dt > dt_cfl:
        raise ValueError(f"CFL violation: dt={dt:.3e} exceeds admissible {dt_cfl:.3e}")
    div = _upwind_divergence(rho.values, vfaces)
    div *= dt
    new = rho.values - div
    if nu > 0.0:
        inv_denom = np.multiply(k2, nu * dt)
        inv_denom += 1.0
        np.reciprocal(inv_denom, out=inv_denom)
        spec = forward_transform(new)
        spec *= inv_denom
        new = inverse_transform(spec, rho.n)
    return GridField(new)


def step_nonlocal(
    rho: GridField,
    schedule: ParameterSchedule,
    kernels: KernelSet,
    dt: float,
    nu: float = 0.0,
) -> GridField:
    """One conservative upwind step of the nonlocal equation."""
    vfaces, dt_cfl = _face_velocities(rho, schedule, kernels)
    return _step(rho, vfaces, dt_cfl, dt, nu, k_squared(rho.n, rho.d))


@dataclass
class NonlocalTrace:
    nu: float
    reports: list  # EnergyReport samples
    final: GridField
    min_value: float
    mass_drift: float


@dataclass
class NonlocalRun:
    traces: list
    l2_differences: list  # successive ||rho_nu_i - rho_nu_{i+1}||_L2 at T


def run_nonlocal(
    rho0: GridField,
    schedule: ParameterSchedule,
    kernels: KernelSet,
    T: float,
    nu_sequence: Sequence[float] = (0.0,),
    energy_every: Optional[float] = None,
) -> NonlocalRun:
    """Run once per nu in the sequence from the same initial condition.

    Each step takes CFL_SAFETY times the CFL bound of the current field
    (deterministic: it depends only on that field), cut to end at T.
    """
    rho0.check_density(mass=rho0.mass(), tol=np.inf)  # nonnegativity only
    energy_every = energy_every if energy_every is not None else T / 20.0
    k2 = k_squared(rho0.n, rho0.d)
    traces = []
    for nu in nu_sequence:
        rho = rho0.copy()
        t = 0.0
        reports = [free_energy(rho, schedule, kernels, t=0.0)]
        next_energy = energy_every
        min_value = float(rho.values.min())
        while t < T - 1e-14:
            vfaces, dt_cfl = _face_velocities(rho, schedule, kernels)
            step_dt = min(T - t, CFL_SAFETY * dt_cfl)
            rho = _step(rho, vfaces, dt_cfl, step_dt, nu, k2)
            t += step_dt
            min_value = min(min_value, float(rho.values.min()))
            if t >= next_energy - 1e-14:
                reports.append(free_energy(rho, schedule, kernels, t=t))
                next_energy += energy_every
        if reports[-1].t < t:
            reports.append(free_energy(rho, schedule, kernels, t=t))
        traces.append(
            NonlocalTrace(
                nu=nu,
                reports=reports,
                final=rho,
                min_value=min_value,
                mass_drift=abs(rho.mass() - rho0.mass()),
            )
        )
    diffs = []
    h_d = rho0.h**rho0.d
    for a, b in zip(traces[:-1], traces[1:]):
        diffs.append(float(np.sqrt(((a.final.values - b.final.values) ** 2).sum() * h_d)))
    return NonlocalRun(traces=traces, l2_differences=diffs)
