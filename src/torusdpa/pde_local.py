"""Pseudo-spectral solver for the local fourth-order equation.

    d rho/dt + D * div(rho grad lap rho) + lap rho^m = 0

on the periodic grid, with D the biharmonic coefficient (1.0 for the model
equation).  The stiff fourth-order part is treated linearly implicitly with
a constant-mobility surrogate kappa (one constant-coefficient solve per
step, in Fourier space); the anti-diffusive power-law part goes through a
scalar auxiliary variable r with r^2 = C0 - E_m so that the modified energy

    0.5 * D * ||grad rho||^2 + r^2 - C0

dissipates.  Negative undershoot is reported, never clipped.

LocalSolver carries the field, its half spectrum and r from step to step, and
every energy it reports comes by Parseval from the carried spectrum, so a run
of k steps takes 1 + 10 k real transforms in 2-d and 1 + 6 k in 1-d.
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
# a step whose field exceeds this in absolute value, or is not finite, fails
BLOWUP_THRESHOLD = 1e3


@dataclass
class LocalSolverConfig:
    dt: float = 1e-6  # largest step; run_local takes equal steps that end at T
    m: float = 2.0
    T: float = 1e-3
    kappa: Optional[float] = None  # None: refreshed to max(rho) each step
    C0: Optional[float] = None  # None: 2*E_m[rho0] + 1
    biharmonic_coeff: float = 1.0
    energy_every: Optional[float] = None  # time cadence; None: T/50

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
    """Half spectrum of div(vals * v) from the grid components of v, which
    it overwrites."""
    out = None
    for m, g in zip(gmult, grads):
        g *= vals
        term = forward_transform(g)
        term *= m
        if out is None:
            out = term
        else:
            out += term
    return out


class LocalSolver:
    """init / step / observe of the SAV scheme.  The solver carries the field,
    its half spectrum and the SAV scalar r from step to step, and builds the
    grid's multipliers and the gradient-energy weight once; the grid size
    follows from rho0 and cfg is never modified."""

    def __init__(self, cfg: LocalSolverConfig, rho0: GridField):
        self.cfg = cfg
        D = cfg.biharmonic_coeff
        d = rho0.d
        self.n = n = rho0.n
        self.cell = rho0.h**d
        self.k2 = k_squared(n, d)
        self.neg_k2 = -self.k2
        self.Dk4 = D * self.k2**2
        self.gmult = grad_multipliers(n, d)
        # 2/3-rule dealiasing of the products
        cutoff = n // 3
        mask = 1.0
        for k in freq_lattice(n, d):
            mask = mask * (np.abs(k) <= cutoff)
        self.neg_Dmask = -D * mask
        self.neg_mask = -mask
        # 0.5 D ||grad rho||^2 by Parseval (spectral.inner) weighs |rho_hat|^2
        # by 0.5 D |2 pi k|^2 (Nyquist zeroed), twice for each last-axis column
        # that stands for itself and its mirror
        w = np.full(n // 2 + 1, 2.0)
        w[0] = 1.0
        if n % 2 == 0:
            w[-1] = 1.0
        self.grad_weight = 0.5 * D * sum(np.abs(g) ** 2 for g in self.gmult) * w
        self.C0, em0 = cfg.initial_shift(rho0)
        self.r = float(np.sqrt(self.C0 - em0))
        self.mass0 = rho0.mass()
        self.values = rho0.values
        self.spec = forward_transform(rho0.values)
        self._peak = float(rho0.values.max())  # max(rho), kept from each step's check

    def _grad_energy(self, spec) -> float:
        """0.5 D ||grad rho||^2 by Parseval on the half spectrum of rho."""
        return float(np.vdot(spec, self.grad_weight * spec).real)

    def _internal_energy(self, mob, power) -> float:
        """E_m = integral of max(rho, 0)^m / (m - 1), from mob = max(rho, 0)
        and power = mob^(m-1)."""
        return float(np.vdot(mob, power)) * self.cell / (self.cfg.m - 1.0)

    def modified_energy(self) -> float:
        """0.5 D ||grad rho||^2 + r^2 - C0 of the carried state (no transform)."""
        return self._grad_energy(self.spec) + self.r * self.r - self.C0

    def observe(self, t: float) -> dict:
        """The record of the carried state at time t (no transform)."""
        vals = self.values
        mob = np.maximum(vals, 0.0)
        em = self._internal_energy(mob, mob ** (self.cfg.m - 1.0))
        return {
            "t": t,
            "free_energy": self._grad_energy(self.spec) - em,
            "modified_energy": self.modified_energy(),
            "sav_r": self.r,
            "mass": float(vals.sum() * self.cell),
            "min": float(vals.min()),
        }

    # -- one step -----------------------------------------------------------

    def step(self) -> dict:
        """One SAV step of the carried state.  Every operator stays in spectral
        space, the carried spectrum stands in for a transform of the field,
        and the new spectrum rho1_hat + r_new * rho2_hat is inverted once, so
        a 2-d step takes 10 real transforms (6 in 1-d).  Returns the new
        minimum, whether it undershoots, and the new modified energy, by
        Parseval on the new spectrum (no transform)."""
        cfg = self.cfg
        m = cfg.m
        n = self.n
        dt = cfg.dt
        vals, spec = self.values, self.spec
        # mobility is physically nonnegative; undershoot in the solution is
        # reported, but a negative mobility would flip the sign of the
        # fourth-order transport in vacuum regions and blow up
        mob = np.maximum(vals, 0.0)
        g = mob ** (m - 1.0)  # scaled by m/(m-1) in place once E_m is read
        em = self._internal_energy(mob, g)
        qsq = self.C0 - em
        if qsq <= 0:
            raise RuntimeError(
                f"SAV shift exhausted: E_m={em:.6g} reached C0={self.C0:.6g}; increase C0"
            )
        q = float(np.sqrt(qsq))
        peak = self._peak
        kappa = cfg.kappa if cfg.kappa is not None else peak
        grad_lap = gradient(self.neg_k2 * spec, n)
        g *= m / (m - 1.0)
        g_hat = forward_transform(g)

        # implicit part: the constant-mobility biharmonic kappa D k^4 and a
        # second-order surrogate S k^2 for the anti-diffusive part; without
        # the latter the condensed-cluster phase forces dt ~ 1/(max rho * k^2).
        # The explicit remainders are -D div(rho grad lap rho) + kappa D lap^2 rho
        # and -S lap rho, with their implicit twins in the denominator, so
        #   rho1_hat = (spec + dt (-D mask div_hat + implicit spec)) / denom
        #            = spec + dt (-D mask) div_hat / denom
        S = m * max(peak, 0.0) ** (m - 1.0)
        inv_denom = kappa * self.Dk4 + S * self.k2
        inv_denom *= dt
        inv_denom += 1.0
        np.reciprocal(inv_denom, out=inv_denom)
        drho1_hat = _div_hat(mob, grad_lap, self.gmult)  # rho1_hat - spec
        drho1_hat *= (dt * self.neg_Dmask) * inv_denom
        rho2_hat = _div_hat(mob, gradient(g_hat, n), self.gmult)
        rho2_hat *= (dt / q * self.neg_mask) * inv_denom

        inner_g_rho2 = inner(g_hat, rho2_hat, n)
        inner_g_diff = inner(g_hat, drho1_hat, n)
        r_new = (self.r - inner_g_diff / (2.0 * q)) / (1.0 + inner_g_rho2 / (2.0 * q))
        if r_new <= 0.0:
            raise RuntimeError(
                f"SAV scalar turned nonpositive (r={r_new:.3e}); increase C0"
            )
        new_hat = rho2_hat
        new_hat *= r_new
        new_hat += drho1_hat
        new_hat += spec
        new_vals = inverse_transform(new_hat, n)

        # one min and one max give the check, the step's minimum and the next
        # step's max(rho); a NaN fails the check
        lo, hi = float(new_vals.min()), float(new_vals.max())
        if not (hi <= BLOWUP_THRESHOLD and -lo <= BLOWUP_THRESHOLD):
            raise RuntimeError(
                f"blow-up detected: max|rho| = {max(hi, -lo):.3e} > {BLOWUP_THRESHOLD}"
            )
        self.values, self.spec, self.r, self._peak = new_vals, new_hat, float(r_new), hi
        return {
            "min": lo,
            "undershoot": lo < UNDERSHOOT_TOL,
            "modified_energy": self._grad_energy(new_hat) + self.r * self.r - self.C0,
        }


def run_local(rho0: GridField, cfg: LocalSolverConfig) -> LocalRun:
    """Integrate to exactly T in equal steps of at most cfg.dt (fixed_steps),
    recording free and modified energies and flags."""
    nsteps, dt = fixed_steps(cfg.T, cfg.dt)
    solver = LocalSolver(replace(cfg, dt=dt), rho0)
    energy_every = cfg.energy_every if cfg.energy_every is not None else cfg.T / 50.0
    flags = {"energy_increases": 0, "worst_increase": 0.0, "min_value": float(rho0.values.min()),
             "undershoot_steps": 0}
    records = [solver.observe(0.0)]
    prev_mod = records[0]["modified_energy"]
    t = 0.0
    next_energy = energy_every
    for k in range(1, nsteps + 1):
        diag = solver.step()
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
            records.append(solver.observe(t))
            next_energy += energy_every
    if records[-1]["t"] < t:
        records.append(solver.observe(t))
    final = GridField(solver.values)
    flags["mass_drift"] = abs(final.mass() - solver.mass0)
    return LocalRun(records=records, flags=flags, final=final)


def ch_operator(rho: GridField, m: float, biharmonic_coeff: float = 1.0) -> GridField:
    """Discrete  D*div(rho grad lap rho) + lap rho^m  (for accuracy checks)."""
    n, d = rho.n, rho.d
    k2 = k_squared(n, d)
    grad_lap = gradient(-k2 * forward_transform(rho.values), n)
    div = _div_hat(rho.values, grad_lap, grad_multipliers(n, d))
    return GridField(
        inverse_transform(biharmonic_coeff * div - k2 * forward_transform(rho.values**m), n)
    )
