"""Pseudo-spectral solver for the local fourth-order equation.

    d rho/dt + D * div(rho grad lap rho) + lap rho^m = 0

on the periodic grid, with D the biharmonic coefficient (1.0 for the model
equation).  The stiff fourth-order part is treated linearly implicitly with
a constant-mobility surrogate kappa (one constant-coefficient solve per
step, in Fourier space); the anti-diffusive power-law part goes through a
scalar auxiliary variable r with r^2 = C0 - E_m so that the modified energy

    0.5 * D * ||grad rho||^2 + r^2 - C0

dissipates.  Negative undershoot is reported, never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fields import GridField, energy_E_m
from .particles import fixed_steps
from .spectral import freq_lattice, grad_multipliers

__all__ = ["LocalSolverConfig", "LocalSolver", "LocalRun", "run_local", "ch_operator"]

# a step whose minimum falls below this counts as an undershoot step
UNDERSHOOT_TOL = -1e-10
# a modified-energy rise above this between two steps is flagged
ENERGY_INCREASE_TOL = 1e-10


@dataclass
class LocalSolverConfig:
    dt: float = 1e-6  # largest step; run_local takes equal steps that end at T
    m: float = 2.0
    T: float = 1e-3
    kappa: Optional[float] = None  # None: refreshed to max(rho) each step
    C0: Optional[float] = None  # None: 2*E_m[rho0] + 1
    biharmonic_coeff: float = 1.0
    energy_every: Optional[float] = None  # time cadence; None: T/50
    blowup_threshold: float = 1e3


@dataclass
class LocalRun:
    records: list  # dicts per sample
    flags: dict
    final: GridField
    sav_r: float


class LocalSolver:
    """Carries the SAV scalar, the resolved C0 and cached multipliers across
    steps; the grid size follows from rho0 and cfg is never modified."""

    def __init__(self, cfg: LocalSolverConfig, rho0: GridField):
        self.cfg = cfg
        d = rho0.d
        n = rho0.n
        ks = freq_lattice(n, d)
        self.k2 = sum((2.0 * np.pi * k) ** 2 for k in ks)
        self.k4 = self.k2**2
        self.gmult = grad_multipliers(n, d)
        # 2/3-rule dealiasing of the products
        cutoff = n // 3
        mask = np.ones((n,) * d)
        for k in ks:
            mask = mask * (np.abs(k) <= cutoff)
        self.mask = mask
        self.h_d = (1.0 / n) ** d
        em0 = energy_E_m(rho0, cfg.m)
        self.C0 = cfg.C0 if cfg.C0 is not None else 2.0 * em0 + 1.0
        if self.C0 <= em0:
            raise ValueError(f"C0={self.C0} must exceed E_m[rho0]={em0}")
        self.r = float(np.sqrt(self.C0 - em0))
        self.mass0 = rho0.mass()

    # -- helpers ------------------------------------------------------------

    def _div_of_product(self, rho_vals, grad_list):
        """div(rho * v) with spectral derivatives and dealiasing."""
        out = np.zeros_like(rho_vals, dtype=complex)
        for mult, g in zip(self.gmult, grad_list):
            out += mult * (np.fft.fftn(rho_vals * g) * self.mask)
        return np.real(np.fft.ifftn(out))

    def _grad(self, spec):
        return [np.real(np.fft.ifftn(m * spec)) for m in self.gmult]

    def grad_norm_sq(self, rho_vals) -> float:
        spec = np.fft.fftn(rho_vals)
        return float(sum((np.abs(g) ** 2).sum() for g in self._grad(spec)) * self.h_d)

    def modified_energy(self, rho_vals, r) -> float:
        return 0.5 * self.cfg.biharmonic_coeff * self.grad_norm_sq(rho_vals) + r * r - self.C0

    def free_energy(self, rho_vals) -> float:
        em = energy_E_m(GridField(np.maximum(rho_vals, 0.0)), self.cfg.m)
        return 0.5 * self.cfg.biharmonic_coeff * self.grad_norm_sq(rho_vals) - em

    # -- one step -----------------------------------------------------------

    def step(self, rho: GridField) -> tuple:
        cfg = self.cfg
        m = cfg.m
        D = cfg.biharmonic_coeff
        vals = rho.values
        dt = cfg.dt
        kappa = cfg.kappa if cfg.kappa is not None else float(vals.max())
        em = energy_E_m(GridField(np.maximum(vals, 0.0)), m)
        qsq = self.C0 - em
        if qsq <= 0:
            raise RuntimeError(
                f"SAV shift exhausted: E_m={em:.6g} reached C0={self.C0:.6g}; increase C0"
            )
        q = float(np.sqrt(qsq))
        spec = np.fft.fftn(vals)
        lap = np.real(np.fft.ifftn(-self.k2 * spec))
        grad_lap = self._grad(np.fft.fftn(lap))
        # mobility is physically nonnegative; undershoot in the solution is
        # reported, but a negative mobility would flip the sign of the
        # fourth-order transport in vacuum regions and blow up
        mob = np.maximum(vals, 0.0)
        g = (m / (m - 1.0)) * mob ** (m - 1.0)
        grad_g = self._grad(np.fft.fftn(g))

        # second-order surrogate for the anti-diffusive part: without it the
        # condensed-cluster phase forces dt ~ 1/(max rho * k^2)
        S = m * float(mob.max()) ** (m - 1.0)
        denom = 1.0 + dt * (kappa * D * self.k4 + S * self.k2)
        # explicit remainders: -D div(rho grad lap rho) + kappa D lap^2 rho and
        # -S lap rho; their implicit twins sit in the denominator
        a_exp = (
            -D * self._div_of_product(mob, grad_lap)
            + kappa * D * np.real(np.fft.ifftn(self.k4 * spec))
            - S * lap
        )
        K = -self._div_of_product(mob, grad_g)
        rho1 = np.real(np.fft.ifftn((spec + dt * np.fft.fftn(a_exp)) / denom))
        rho2 = np.real(np.fft.ifftn(dt * np.fft.fftn(K) / (q * denom)))

        inner_g_rho2 = float((g * rho2).sum() * self.h_d)
        inner_g_diff = float((g * (rho1 - vals)).sum() * self.h_d)
        r_new = (self.r - inner_g_diff / (2.0 * q)) / (1.0 + inner_g_rho2 / (2.0 * q))
        if r_new <= 0.0:
            raise RuntimeError(
                f"SAV scalar turned nonpositive (r={r_new:.3e}); increase C0"
            )
        new_vals = rho1 + r_new * rho2

        if np.max(np.abs(new_vals)) > cfg.blowup_threshold:
            raise RuntimeError(
                f"blow-up detected: max|rho| = {np.max(np.abs(new_vals)):.3e} "
                f"> {cfg.blowup_threshold}"
            )
        diag = {
            "kappa": kappa,
            "min": float(new_vals.min()),
            "undershoot": bool(new_vals.min() < UNDERSHOOT_TOL),
            "mass": float(new_vals.sum() * self.h_d),
        }
        self.r = float(r_new)
        return GridField(new_vals), diag


def run_local(rho0: GridField, cfg: LocalSolverConfig) -> LocalRun:
    """Integrate to exactly T in equal steps of at most cfg.dt (fixed_steps),
    recording free and modified energies and flags."""
    nsteps, dt = fixed_steps(cfg.T, cfg.dt)
    solver = LocalSolver(replace(cfg, dt=dt), rho0)
    energy_every = cfg.energy_every if cfg.energy_every is not None else cfg.T / 50.0
    records = []
    flags = {"energy_increases": 0, "worst_increase": 0.0, "min_value": float(rho0.values.min()),
             "undershoot_steps": 0}

    def record(t, rho):
        records.append(
            {
                "t": t,
                "free_energy": solver.free_energy(rho.values),
                "modified_energy": solver.modified_energy(rho.values, solver.r),
                "sav_r": solver.r,
                "mass": rho.mass(),
                "min": float(rho.values.min()),
            }
        )

    record(0.0, rho0)
    rho = rho0
    t = 0.0
    prev_mod = records[0]["modified_energy"]
    next_energy = energy_every
    for k in range(1, nsteps + 1):
        rho, diag = solver.step(rho)
        t = k * dt
        mod = solver.modified_energy(rho.values, solver.r)
        if mod > prev_mod + ENERGY_INCREASE_TOL:
            flags["energy_increases"] += 1
            flags["worst_increase"] = max(flags["worst_increase"], mod - prev_mod)
        prev_mod = mod
        flags["min_value"] = min(flags["min_value"], diag["min"])
        if diag["undershoot"]:
            flags["undershoot_steps"] += 1
        if t >= next_energy - 1e-15:
            record(t, rho)
            next_energy += energy_every
    if records[-1]["t"] < t:
        record(t, rho)
    flags["mass_drift"] = abs(rho.mass() - solver.mass0)
    return LocalRun(records=records, flags=flags, final=rho, sav_r=solver.r)


def ch_operator(rho: GridField, m: float, biharmonic_coeff: float = 1.0) -> GridField:
    """Discrete  D*div(rho grad lap rho) + lap rho^m  (for accuracy checks)."""
    spec = np.fft.fftn(rho.values)
    n, d = rho.n, rho.d
    ks = freq_lattice(n, d)
    k2 = sum((2.0 * np.pi * k) ** 2 for k in ks)
    gmult = grad_multipliers(n, d)
    lap = np.real(np.fft.ifftn(-k2 * spec))
    grad_lap = [np.real(np.fft.ifftn(mm * np.fft.fftn(lap))) for mm in gmult]
    div = np.zeros_like(rho.values, dtype=complex)
    for mm, g in zip(gmult, grad_lap):
        div += mm * np.fft.fftn(rho.values * g)
    term1 = biharmonic_coeff * np.real(np.fft.ifftn(div))
    term2 = np.real(np.fft.ifftn(-k2 * np.fft.fftn(rho.values**m)))
    return GridField(term1 + term2)
