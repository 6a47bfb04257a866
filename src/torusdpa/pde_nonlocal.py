"""Finite-volume solver for the nonlocal continuity equation.

Fluxes are rho * v upwinded per face, which keeps the update conservative
and positivity-preserving under the CFL bound.  The face velocities are
grad(phi) straight from the potential spectrum (fields.velocity_field_nl)

    phi_hat = (m/(m-1)) ot_hat F[max(rho*ot, 0)^(m-1)]
              - (ot_hat^2 (1 - o_hat)/eps^2 + eps_star R_hat) rho_hat

through a gradient multiplier that carries the half-cell shift, so a step
takes 3 + d transforms, or 1 + d at m = 2 on a field away from vacuum, where
the potential is the single multiplier -U_hat on rho_hat.  An optional
artificial viscosity nu * lap rho is applied implicitly through a Fourier
multiplier (2 more transforms); runs over a decreasing nu sequence exhibit
the vanishing-viscosity continuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import particles
from .fields import GridField, free_energy, velocity_field_nl
from .kernels import KernelSet
from .particles import SAMPLE_TOL
from .spectral import forward_transform, inverse_transform, k_squared

__all__ = ["run_nonlocal", "cfl_step", "NonlocalRun", "NonlocalTrace"]

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


def cfl_step(rho: GridField, vfaces) -> float:
    """run_nonlocal's step before the cut at T: CFL_SAFETY times the CFL bound
    h/(2 d ||v||_inf) of the face velocities vfaces on rho (inf where v = 0)."""
    vmax = max(float(vfaces.max()), -float(vfaces.min()))
    return CFL_SAFETY * (rho.h / (2.0 * rho.d * vmax)) if vmax > 0 else float("inf")


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
    kernels: KernelSet,
    T: float,
    nu_sequence: Sequence[float] = (0.0,),
    energy_every: Optional[float] = None,
) -> NonlocalRun:
    """The engine's stepping loop, run once per nu in the sequence from the
    same rho0, at the kernel set's schedule; a rho0 with a cell below -1e-12
    or a negative nu is rejected before any run.

    Each step is upwind transport, then the implicit nu-diffusion, over
    CFL_SAFETY times the CFL bound h/(2 d ||v||_inf) of the current field
    (so it depends only on that field), cut to end at T.  Energies are
    recorded by the sampling rule (particles.SAMPLE_TOL) every energy_every
    (None: T/20).  A run that passes particles.MAX_STEPS steps before T
    raises RuntimeError, naming the t it reached.
    """
    if rho0.values.min() < -1e-12:
        raise ValueError(f"density has negative cells (min {rho0.values.min():.3e})")
    if any(nu < 0 for nu in nu_sequence):
        raise ValueError("nu must be nonnegative")
    energy_every = energy_every if energy_every is not None else T / 20.0
    k2 = k_squared(rho0.n, rho0.d)
    traces = []
    for nu in nu_sequence:
        rho = rho0.copy()
        t = 0.0
        reports = [free_energy(rho, kernels, t=0.0)]
        due = energy_every
        min_value = float(rho.values.min())
        steps = 0
        while t < T - SAMPLE_TOL:
            if steps >= particles.MAX_STEPS:
                raise RuntimeError(f"the nonlocal run (nu = {nu:g}) took {steps} steps, the cap "
                                   f"(particles.MAX_STEPS), and reached only t = {t:.6g} of "
                                   f"T = {T:g}")
            steps += 1
            vfaces = velocity_field_nl(rho, kernels, at_faces=True)
            dt = min(T - t, cfl_step(rho, vfaces))
            div = _upwind_divergence(rho.values, vfaces)
            div *= dt
            new = np.subtract(rho.values, div, out=div)  # div is not held into the next step
            if nu > 0.0:
                inv_denom = np.multiply(k2, nu * dt)
                inv_denom += 1.0
                np.reciprocal(inv_denom, out=inv_denom)
                spec = forward_transform(new)
                spec *= inv_denom
                new = inverse_transform(spec, rho.n)
            rho = GridField(new)
            t += dt
            min_value = min(min_value, float(rho.values.min()))
            if t >= due - SAMPLE_TOL or t >= T - SAMPLE_TOL:
                reports.append(free_energy(rho, kernels, t=t))
                due += energy_every
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
