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
every energy it reports comes by Parseval from the carried spectrum.  The
power-law term is taken as lap(mob^m), with mob = max(rho, 0): one forward
transform of mob^m.  The chain-rule form div(mob grad g), g = (m/(m-1))
mob^(m-1), is the same function, but on a clipped mobility it takes the
spectral derivative of the kink of mob and does not converge with n, where
-k^2 F[mob^m] does.  A step takes 6 real transforms in 2-d and 4 in 1-d at
m = 2 on a field that is nowhere negative, where g = 2 rho comes from the
carried spectrum, and 7 and 5 otherwise, where g is transformed alongside.
The 2/3-rule mask keeps the last-axis columns up to n/3, so the dealiased
products are transformed on those columns only (spectral.forward_transform's
cols) and the scheme never changes a mode past n/3: those keep rho0's values.
A transform is d numpy FFT calls, and the step stacks its d gradient fields
of lap rho into one inverse pass and its d flux products mob * grad lap rho,
mob^m and g into one forward pass, so it makes 3d numpy calls (6 in 2-d, 3
in 1-d) on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fields import GridField, energy_E_m
from .particles import SAMPLE_TOL, fixed_steps
from .spectral import (
    column_weights,
    forward_transform,
    freq_lattice,
    grad_multipliers,
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


def _stacked(mults) -> np.ndarray:
    """Sparse per-axis multipliers as one dense (d, ...) stack."""
    return np.stack(np.broadcast_arrays(*mults))


def _div_mob_grad_hat(mob, grad_hat, gmult_cols, fields):
    """div(mob grad f) from the stack grad_hat (d, ...) of f's gradient
    spectra, on the first gmult_cols.shape[-1] last-axis columns of its half
    spectrum, and there the spectra of fields[d:], which the caller fills.
    The d gradient fields come from one stacked inverse transform into
    fields[:d] and are multiplied by mob in place, and all of fields goes
    back in one stacked forward transform cut to those columns; gmult_cols
    is the stacked gradient multipliers cut there, and the divergence sums
    its axes in order.  Returns the divergence and the spectra of fields[d:]."""
    d, n = grad_hat.shape[0], mob.shape[-1]
    inverse_transform(grad_hat, n, d, out=fields[:d])
    fields[:d] *= mob
    flux = forward_transform(fields, gmult_cols.shape[-1], d)
    div = flux[:d]
    div *= gmult_cols
    return div.sum(axis=0), flux[d:]


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
        k2 = k_squared(n, d)
        gmult = grad_multipliers(n, d)
        # 2/3-rule dealiasing of the products: the mask keeps the slab of the
        # first n//3 + 1 last-axis columns, where the step's algebra runs
        cutoff = n // 3
        self.cols = cols = cutoff + 1
        mask = 1.0
        for k in freq_lattice(n, d):
            mask = mask * (np.abs(k[..., :cols]) <= cutoff)
        # the multipliers of grad lap rho, whole, and of the gradient on the
        # slab, and the work arrays the step writes its gradient spectra and
        # fields into: allocated anew each step, arrays of their size were
        # given back to the system and faulted in again (on a 2-core AMD EPYC,
        # about 300 page faults and a third more time per 2-d step at n = 128)
        stacked = _stacked(gmult)
        self.grad_lap = stacked * -k2
        self.gmult_slab = stacked[..., :cols].copy()
        self._grad_hat = np.empty(stacked.shape, dtype=complex)
        self._fields = np.empty((d + 2,) + rho0.values.shape)
        self.dt_neg_Dmask = cfg.dt * (-D * mask)
        self.slab_k2 = k2[..., :cols]
        self.mask_k2 = mask * self.slab_k2
        self.slab_Dk4 = D * self.slab_k2**2
        # 0.5 D ||grad rho||^2 by Parseval (spectral.inner) weighs |rho_hat|^2
        # by 0.5 D |2 pi k|^2 (Nyquist zeroed) times the column weights, once
        # for the real and once for the imaginary part of each mode
        self.grad_weight = np.repeat(0.5 * D * sum(np.abs(g) ** 2 for g in gmult)
                                     * column_weights(n), 2, axis=-1).ravel()
        self.C0, em0 = cfg.initial_shift(rho0)
        self.r = float(np.sqrt(self.C0 - em0))
        self.mass0 = rho0.mass()
        self.values = rho0.values
        self.spec = forward_transform(rho0.values)
        # min(rho) and max(rho), kept from each step's check
        self._low, self._peak = float(rho0.values.min()), float(rho0.values.max())

    def _grad_energy(self, spec) -> float:
        """0.5 D ||grad rho||^2 by Parseval on the half spectrum of rho; this and
        E_m are einsum sums, as a BLAS dot would wake its thread pool each step."""
        parts = spec.view(np.float64).ravel()  # (re, im) of each mode
        return float(np.einsum("i,i,i->", self.grad_weight, parts, parts))

    def _internal_energy(self, mob, power) -> float:
        """E_m = integral of max(rho, 0)^m / (m - 1), from mob = max(rho, 0)
        and power = mob^(m-1)."""
        em = float(np.einsum("i,i->", mob.ravel(), power.ravel()))
        return em * self.cell / (self.cfg.m - 1.0)

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
        and the new spectrum rho1_hat + r_new * rho2_hat is inverted once.
        The power-law part rho2_hat is -lap(mob^m) = k^2 F[mob^m] on the
        mask, transformed with the d flux products mob * grad lap rho (and g,
        off the m = 2 nonnegative path) in one stacked forward pass, so a
        2-d step takes 6 real transforms (4 in 1-d), or 7 (5) when it
        transforms g, in 3d numpy calls.  The dealiased products and the
        masked algebra run on the mask's slab of columns, and the step adds
        its change to a copy of the carried spectrum.  Returns the new
        minimum, whether it undershoots, and the new modified energy, by
        Parseval on the new spectrum (no transform)."""
        cfg = self.cfg
        m = cfg.m
        n = self.n
        cols = self.cols
        dt = cfg.dt
        vals, spec = self.values, self.spec
        d = self._grad_hat.shape[0]
        if m == 2.0 and self._low >= 0.0:
            # mob = rho, E_m = integral of rho^2, mob^m = rho^2 and g = 2 rho,
            # whose spectrum is twice the carried one
            mob = vals
            em = self._internal_energy(mob, mob)
            fields = self._fields[: d + 1]
            np.multiply(mob, mob, out=fields[d])
        else:
            # mobility is physically nonnegative; undershoot in the solution is
            # reported, but a negative mobility would flip the sign of the
            # fourth-order transport in vacuum regions and blow up
            mob = np.maximum(vals, 0.0)
            power = mob ** (m - 1.0)
            em = self._internal_energy(mob, power)
            fields = self._fields
            np.multiply(mob, power, out=fields[d])
            np.multiply(power, m / (m - 1.0), out=fields[d + 1])  # g
        qsq = self.C0 - em
        if qsq <= 0:
            raise RuntimeError(
                f"SAV shift exhausted: E_m={em:.6g} reached C0={self.C0:.6g}; increase C0"
            )
        q = float(np.sqrt(qsq))
        peak = self._peak
        kappa = cfg.kappa if cfg.kappa is not None else peak

        # implicit part: the constant-mobility biharmonic kappa D k^4 and a
        # second-order surrogate S k^2 for the anti-diffusive part; without
        # the latter the condensed-cluster phase forces dt ~ 1/(max rho * k^2).
        # The explicit remainders are -D div(rho grad lap rho) + kappa D lap^2 rho
        # and -S lap rho, with their implicit twins in the denominator, so
        #   rho1_hat = (spec + dt (-D mask div_hat + implicit spec)) / denom
        #            = spec + dt (-D mask) div_hat / denom
        # and both corrections vanish outside the mask's slab
        S = m * max(peak, 0.0) ** (m - 1.0)
        inv_denom = kappa * self.slab_Dk4 + S * self.slab_k2
        inv_denom *= dt
        inv_denom += 1.0
        np.reciprocal(inv_denom, out=inv_denom)
        # div(mob grad lap rho), and the spectra of mob^m and g, on the slab
        np.multiply(self.grad_lap, spec, out=self._grad_hat)
        drho1_hat, spectra = _div_mob_grad_hat(mob, self._grad_hat, self.gmult_slab, fields)
        drho1_hat *= self.dt_neg_Dmask * inv_denom  # rho1_hat - spec
        rho2_hat = spectra[0]
        rho2_hat *= (dt / q * self.mask_k2) * inv_denom
        g_slab = spectra[1] if len(spectra) > 1 else 2.0 * spec[..., :cols]

        inner_g_rho2 = inner(g_slab, rho2_hat, n)
        inner_g_diff = inner(g_slab, drho1_hat, n)
        r_new = (self.r - inner_g_diff / (2.0 * q)) / (1.0 + inner_g_rho2 / (2.0 * q))
        if r_new <= 0.0:
            raise RuntimeError(
                f"SAV scalar turned nonpositive (r={r_new:.3e}); increase C0"
            )
        rho2_hat *= r_new
        rho2_hat += drho1_hat
        new_hat = spec.copy()
        new_hat[..., :cols] += rho2_hat
        new_vals = inverse_transform(new_hat, n)

        # one min and one max give the check, the step's minimum and the next
        # step's min(rho) and max(rho); a NaN fails the check
        lo, hi = float(new_vals.min()), float(new_vals.max())
        if not (hi <= BLOWUP_THRESHOLD and -lo <= BLOWUP_THRESHOLD):
            raise RuntimeError(
                f"blow-up detected: max|rho| = {max(hi, -lo):.3e} > {BLOWUP_THRESHOLD}"
            )
        self.values, self.spec, self.r = new_vals, new_hat, float(r_new)
        self._low, self._peak = lo, hi
        return {
            "min": lo,
            "undershoot": lo < UNDERSHOOT_TOL,
            "modified_energy": self._grad_energy(new_hat) + self.r * self.r - self.C0,
        }


def run_local(rho0: GridField, cfg: LocalSolverConfig) -> LocalRun:
    """The engine's stepping loop: equal steps of at most cfg.dt that end
    exactly at T (fixed_steps, so at most particles.MAX_STEPS), each flagged,
    and records of the energies by the sampling rule (particles.SAMPLE_TOL)
    every cfg.energy_every (None: T/50)."""
    nsteps, dt = fixed_steps(cfg.T, cfg.dt, "LocalSolverConfig.dt")
    solver = LocalSolver(replace(cfg, dt=dt), rho0)
    energy_every = cfg.energy_every if cfg.energy_every is not None else cfg.T / 50.0
    flags = {"energy_increases": 0, "worst_increase": 0.0, "min_value": float(rho0.values.min()),
             "undershoot_steps": 0}
    records = [solver.observe(0.0)]
    prev_mod = records[0]["modified_energy"]
    due = energy_every
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
        if t >= due - SAMPLE_TOL or k == nsteps:
            records.append(solver.observe(t))
            due += energy_every
    final = GridField(solver.values)
    flags["mass_drift"] = abs(final.mass() - solver.mass0)
    return LocalRun(records=records, flags=flags, final=final)


def ch_operator(rho: GridField, m: float) -> GridField:
    """Discrete  div(rho grad lap rho) + lap rho^m  (for accuracy checks)."""
    n, d = rho.n, rho.d
    k2 = k_squared(n, d)
    gmult = _stacked(grad_multipliers(n, d))
    fields = np.empty((d + 1,) + rho.values.shape)
    fields[d] = rho.values**m
    grad_lap_hat = gmult * (-k2 * forward_transform(rho.values))
    div, (power_hat,) = _div_mob_grad_hat(rho.values, grad_lap_hat, gmult, fields)
    return GridField(inverse_transform(div - k2 * power_hat, n))
