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
from .spectral import (
    forward_transform,
    freq_lattice,
    grad_multipliers,
    gradient,
    inner,
    inverse_transform,
    k_squared,
)

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

    def initial_shift(self, rho0: GridField) -> tuple:
        """(C0, E_m[rho0]): C0 as given, or 2*E_m[rho0] + 1 for None, which
        must exceed E_m[rho0], since the SAV scalar starts at sqrt(C0 - E_m)."""
        em0 = energy_E_m(rho0, self.m)
        C0 = self.C0 if self.C0 is not None else 2.0 * em0 + 1.0
        if C0 <= em0:
            raise ValueError(f"C0={C0} must exceed E_m[rho0]={em0}")
        return C0, em0


@dataclass
class LocalRun:
    records: list  # dicts per sample
    flags: dict
    final: GridField


def _div_hat(vals, grads, gmult):
    """Half spectrum of div(vals * v) from the grid components of v."""
    return sum(m * forward_transform(vals * g) for m, g in zip(gmult, grads))


class LocalSolver:
    """Carries the SAV scalar, the resolved C0 and the grid's multipliers
    across steps; the grid size follows from rho0 and cfg is never modified."""

    def __init__(self, cfg: LocalSolverConfig, rho0: GridField):
        self.cfg = cfg
        d = rho0.d
        self.n = n = rho0.n
        self.k2 = k_squared(n, d)
        self.k4 = self.k2**2
        self.gmult = grad_multipliers(n, d)
        # 2/3-rule dealiasing of the products
        cutoff = n // 3
        self.mask = 1.0
        for k in freq_lattice(n, d):
            self.mask = self.mask * (np.abs(k) <= cutoff)
        self.C0, em0 = cfg.initial_shift(rho0)
        self.r = float(np.sqrt(self.C0 - em0))
        self.mass0 = rho0.mass()

    def _grad_energy(self, spec) -> float:
        """0.5 D ||grad rho||^2 by Parseval on the half spectrum of rho."""
        return 0.5 * self.cfg.biharmonic_coeff * sum(
            inner(m * spec, m * spec, self.n) for m in self.gmult
        )

    def modified_energy(self, rho_vals, r) -> float:
        return self._grad_energy(forward_transform(rho_vals)) + r * r - self.C0

    def free_energy(self, rho_vals) -> float:
        em = energy_E_m(GridField(np.maximum(rho_vals, 0.0)), self.cfg.m)
        return self._grad_energy(forward_transform(rho_vals)) - em

    # -- one step -----------------------------------------------------------

    def step(self, rho: GridField) -> tuple:
        """One SAV step; every operator stays in spectral space and the new
        spectrum rho1_hat + r_new * rho2_hat is inverted once, so a 2-d step
        takes 11 real transforms (7 in 1-d).  diag["modified_energy"] is the
        new modified energy, by Parseval on the new spectrum (no transform)."""
        cfg = self.cfg
        m = cfg.m
        D = cfg.biharmonic_coeff
        n = self.n
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
        spec = forward_transform(vals)
        grad_lap = gradient(-self.k2 * spec, n)
        # mobility is physically nonnegative; undershoot in the solution is
        # reported, but a negative mobility would flip the sign of the
        # fourth-order transport in vacuum regions and blow up
        mob = np.maximum(vals, 0.0)
        g = (m / (m - 1.0)) * mob ** (m - 1.0)
        g_hat = forward_transform(g)

        # implicit part: the constant-mobility biharmonic kappa D k^4 and a
        # second-order surrogate S k^2 for the anti-diffusive part; without
        # the latter the condensed-cluster phase forces dt ~ 1/(max rho * k^2)
        S = m * float(mob.max()) ** (m - 1.0)
        implicit = kappa * D * self.k4 + S * self.k2
        # explicit remainders: -D div(rho grad lap rho) + kappa D lap^2 rho and
        # -S lap rho; their implicit twins sit in the denominator
        a_exp = -D * self.mask * _div_hat(mob, grad_lap, self.gmult) + implicit * spec
        K = -self.mask * _div_hat(mob, gradient(g_hat, n), self.gmult)
        denom = 1.0 + dt * implicit
        rho1_hat = (spec + dt * a_exp) / denom
        rho2_hat = dt * K / (q * denom)

        inner_g_rho2 = inner(g_hat, rho2_hat, n)
        inner_g_diff = inner(g_hat, rho1_hat - spec, n)
        r_new = (self.r - inner_g_diff / (2.0 * q)) / (1.0 + inner_g_rho2 / (2.0 * q))
        if r_new <= 0.0:
            raise RuntimeError(
                f"SAV scalar turned nonpositive (r={r_new:.3e}); increase C0"
            )
        new_hat = rho1_hat + r_new * rho2_hat
        new_vals = inverse_transform(new_hat, n)

        if np.max(np.abs(new_vals)) > cfg.blowup_threshold:
            raise RuntimeError(
                f"blow-up detected: max|rho| = {np.max(np.abs(new_vals)):.3e} "
                f"> {cfg.blowup_threshold}"
            )
        diag = {
            "min": float(new_vals.min()),
            "undershoot": bool(new_vals.min() < UNDERSHOOT_TOL),
            "modified_energy": self._grad_energy(new_hat) + r_new * r_new - self.C0,
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

    def record(t, rho, mod):
        records.append(
            {
                "t": t,
                "free_energy": solver.free_energy(rho.values),
                "modified_energy": mod,
                "sav_r": solver.r,
                "mass": rho.mass(),
                "min": float(rho.values.min()),
            }
        )

    prev_mod = solver.modified_energy(rho0.values, solver.r)
    record(0.0, rho0, prev_mod)
    rho = rho0
    t = 0.0
    next_energy = energy_every
    for k in range(1, nsteps + 1):
        rho, diag = solver.step(rho)
        t = k * dt
        mod = diag["modified_energy"]
        if mod > prev_mod + ENERGY_INCREASE_TOL:
            flags["energy_increases"] += 1
            flags["worst_increase"] = max(flags["worst_increase"], mod - prev_mod)
        prev_mod = mod
        flags["min_value"] = min(flags["min_value"], diag["min"])
        if diag["undershoot"]:
            flags["undershoot_steps"] += 1
        if t >= next_energy - 1e-15:
            record(t, rho, mod)
            next_energy += energy_every
    if records[-1]["t"] < t:
        record(t, rho, prev_mod)
    flags["mass_drift"] = abs(rho.mass() - solver.mass0)
    return LocalRun(records=records, flags=flags, final=rho)


def ch_operator(rho: GridField, m: float, biharmonic_coeff: float = 1.0) -> GridField:
    """Discrete  D*div(rho grad lap rho) + lap rho^m  (for accuracy checks)."""
    n, d = rho.n, rho.d
    k2 = k_squared(n, d)
    grad_lap = gradient(-k2 * forward_transform(rho.values), n)
    div = _div_hat(rho.values, grad_lap, grad_multipliers(n, d))
    return GridField(
        inverse_transform(biharmonic_coeff * div - k2 * forward_transform(rho.values**m), n)
    )
