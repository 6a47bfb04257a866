"""The deterministic particle system: initialization, forces, integration.

Particles carry uniform weight 1/N and move by the pairwise ODE

    dX_i/dt = -(1/N) sum_j grad W(X_ij)  [interaction]
              + aggregation term          (m = 2: +(2/N) sum_j grad(ot*ot)(X_ij);
                                           general m: density-weighted form)
              - eps_star (1/N) sum_j grad R_alpha(X_ij)  [viscosity]

with X_ij the minimum-image displacement.  Self terms j = i are kept (all
gradients vanish exactly at 0).  Appendix-A mode drops the viscosity term
entirely instead of sending eps_star to 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import GridField
from .geometry import min_image, wrap
from .kernels import KernelSet, ParameterSchedule
from .spectral import TILE_POINTS, catmull_rom_apply, catmull_rom_prepare

__all__ = [
    "ParticleState",
    "ForceField",
    "init_quantile",
    "compute_forces",
    "step",
    "stable_dt",
    "discrete_energy",
    "momentum",
]

@dataclass
class ParticleState:
    """N particle positions on the torus with uniform weights 1/N."""

    positions: np.ndarray
    time: float = 0.0
    schedule: Optional[ParameterSchedule] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.positions = wrap(np.atleast_2d(np.asarray(self.positions, dtype=float)))

    @property
    def N(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    @property
    def weight(self) -> float:
        return 1.0 / self.N


@dataclass
class ForceField:
    """Velocities and their three-addend decomposition."""

    velocities: np.ndarray
    term_interaction: np.ndarray
    term_aggregation: np.ndarray
    term_viscosity: np.ndarray

    def decomposition_error(self) -> float:
        s = self.term_interaction + self.term_aggregation + self.term_viscosity
        return float(np.max(np.abs(self.velocities - s)))


# ---------------------------------------------------------------------------
# initial discretization


def _quantiles_1d(cellmass: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Invert the piecewise-linear CDF of cell masses on [j*h, (j+1)*h)."""
    n = cellmass.size
    h = 1.0 / n
    cdf = np.concatenate([[0.0], np.cumsum(cellmass)])
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, targets, side="right") - 1
    idx = np.clip(idx, 0, n - 1)
    base = idx * h
    dens = cellmass[idx] / h
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(dens > 0, (targets - cdf[idx]) / dens, 0.5 * h)
    return base + frac


def _split_divisor(N: int) -> int:
    best = 1
    for k in range(1, int(math.isqrt(N)) + 1):
        if N % k == 0:
            best = k
    return best


def init_quantile(
    rho0: GridField, N: int, schedule: Optional[ParameterSchedule] = None
) -> ParticleState:
    """Place N particles at mass-medians of N equal-mass regions of rho0.

    d = 1 uses exact quantiles of the piecewise-constant density; d = 2 uses
    per-axis product quantiles (x-marginal strips, then conditional-in-y),
    which needs N to factor as n1*n2.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    if rho0.values.min() < -1e-12:
        raise ValueError("rho0 has negative mass cells")
    vals = np.maximum(rho0.values, 0.0)
    total = vals.sum() * rho0.h**rho0.d
    if total <= 0:
        raise ValueError("rho0 has no mass")
    if rho0.d == 1:
        cellmass = vals * rho0.h / total
        targets = (np.arange(N) + 0.5) / N
        pos = _quantiles_1d(cellmass, targets)[:, None]
    else:
        n = rho0.n
        h = rho0.h
        n1 = _split_divisor(N)
        n2 = N // n1
        colmass = vals.sum(axis=1) * h * h / total  # mass of each x-column
        x_edges = _quantiles_1d(colmass, np.arange(n1 + 1) / n1)
        x_edges[0], x_edges[-1] = 0.0, 1.0
        x_mid = _quantiles_1d(colmass, (np.arange(n1) + 0.5) / n1)
        pos = np.empty((N, 2))
        grid_edges = np.arange(n + 1) * h
        for s in range(n1):
            a, b = x_edges[s], x_edges[s + 1]
            # overlap of [a, b] with each x-cell [j*h, (j+1)*h)
            lo = np.clip(a, grid_edges[:-1], grid_edges[1:])
            hi = np.clip(b, grid_edges[:-1], grid_edges[1:])
            overlap = np.maximum(hi - lo, 0.0)
            cond = (overlap[:, None] * vals).sum(axis=0) * h
            csum = cond.sum()
            if csum <= 0:
                cond = np.full(n, 1.0 / n)
                csum = 1.0
            y = _quantiles_1d(cond / csum, (np.arange(n2) + 0.5) / n2)
            rows = slice(s * n2, (s + 1) * n2)
            pos[rows, 0] = x_mid[s]
            pos[rows, 1] = y
    return ParticleState(positions=pos, time=0.0, schedule=schedule)


# ---------------------------------------------------------------------------
# forces


def _pair_sums(X: np.ndarray, tables, gradient: bool = True, weights=None):
    """out_i = sum_j w_j T(X_i - X_j) for each table T, over all pairs.

    Row tiles [lo, hi) run against columns [lo, N), so each unordered pair
    is interpolated once, with one |delta| stencil shared by the tables (all
    on the same grid).  The pair's term goes to row i and, negated for the
    odd gradient tables, to row j; the self term counts once and is exactly
    0 for gradients, so gradient sums cancel pairwise by construction.  With
    weights, row i takes w_j and row j takes w_i.  A tile holds about
    TILE_POINTS pairs, keeping its temporaries in cache.  Returns one (N, d)
    array per table for gradients, one (N,) array for values.
    """
    N, d = X.shape
    XT = np.ascontiguousarray(X.T)
    out = [np.zeros((d, N) if gradient else N) for _ in tables]
    rows = max(1, TILE_POINTS // max(N, 1))
    for lo in range(0, N, rows):
        hi = min(lo + rows, N)
        delta = min_image(XT[:, lo:hi, None], XT[:, None, lo:])  # (d, rows, cols)
        prep = catmull_rom_prepare(np.moveaxis(np.abs(delta), 0, -1), tables[0].n, d)
        sign = np.sign(delta) if gradient else None
        for t, table in enumerate(tables):
            if gradient:
                for ax in range(d):
                    term = catmull_rom_apply(table.grads[ax], prep, table.padded("grad", ax))
                    term *= sign[ax]
                    row, col = _fold_tile(term, lo, hi, weights)
                    out[t][ax, lo:hi] += row
                    out[t][ax, lo:] -= col
            else:
                term = catmull_rom_apply(table.values, prep, table.padded("values"))
                row, col = _fold_tile(term, lo, hi, weights)
                out[t][lo:hi] += row
                out[t][lo:] += col
    return [o.T.copy() for o in out] if gradient else out


def _fold_tile(term: np.ndarray, lo: int, hi: int, weights):
    """Row and column sums of one tile's pair terms, each pair counted once.

    The tile's first hi - lo columns are its own rows: pairs below that
    diagonal repeat pairs above it and are dropped, and the diagonal (self
    terms) goes to the row sums only.
    """
    r = hi - lo
    term[np.tril_indices(r, -1)] = 0.0
    row = (term if weights is None else term * weights[None, lo:]).sum(axis=1)
    diag = np.arange(r)
    term[diag, diag] = 0.0
    col = (term if weights is None else term * weights[lo:hi, None]).sum(axis=0)
    return row, col


def compute_forces(
    state: ParticleState,
    kernels: KernelSet,
    appendix_a: bool = False,
) -> ForceField:
    """Evaluate the particle velocities and their three-term decomposition.

    Every term is an exact O(N^2) pair sum of interpolated kernel tables
    (see _pair_sums): each pair is evaluated once and its gradient enters
    the two particles with opposite signs, so the addends cancel pairwise
    and total momentum stays at roundoff.  appendix_a=True drops the
    viscosity term instead of sending eps_star to 0.
    """
    sched = state.schedule or kernels.schedule
    m = sched.m
    N = state.N
    X = state.positions
    include_visc = not appendix_a
    if include_visc and (sched.alpha == 0.0 or kernels.viscosity is None):
        raise ValueError(
            "viscosity particle term needs alpha > 0; use appendix_a=True to drop it"
        )
    visc = [kernels.viscosity.table] if include_visc else []
    if m == 2.0:
        sums = _pair_sums(X, [kernels.W, kernels.smooth2] + visc)
        term1 = -sums[0] / N
        term2 = 2.0 * sums[1] / N
    else:
        (dens,) = _pair_sums(X, [kernels.omega_tilde.table], gradient=False)
        wj = (dens / N) ** (m - 1.0)
        sums = _pair_sums(X, [kernels.W] + visc)
        (s2,) = _pair_sums(X, [kernels.omega_tilde.table], weights=wj)
        term1 = -sums[0] / N
        term2 = (m / (m - 1.0)) * s2 / N
    if include_visc:
        term3 = -sched.epsilon_star * sums[-1] / N  # the viscosity table is last
    else:
        term3 = np.zeros_like(term1)
    vel = term1 + term2 + term3
    return ForceField(
        velocities=vel,
        term_interaction=term1,
        term_aggregation=term2,
        term_viscosity=term3,
    )


def momentum(forces: ForceField) -> np.ndarray:
    """Exact (fsum) total velocity per axis."""
    v = forces.velocities
    return np.array([math.fsum(v[:, ax].tolist()) for ax in range(v.shape[1])])


# ---------------------------------------------------------------------------
# time stepping


def stable_dt(
    state: ParticleState, kernels: KernelSet, appendix_a: bool = False, c_stab: float = 0.5
) -> float:
    """c_stab / L with L a Lipschitz bound of the force field from the tables."""
    sched = state.schedule or kernels.schedule
    m = sched.m
    key = ("L", m, bool(appendix_a))
    cache = kernels.__dict__.setdefault("_stable_cache", {})
    if key not in cache:
        L = kernels.W.hessian_inf_norm()
        if m == 2.0:
            L += 2.0 * kernels.smooth2.hessian_inf_norm()
        else:
            tt = kernels.omega_tilde.table
            rho_max = float(tt.values.max())
            grad_max = float(max(np.max(np.abs(g)) for g in tt.grads))
            L += (m / (m - 1.0)) * (
                tt.hessian_inf_norm() * rho_max ** (m - 1.0)
                + (m - 1.0) * rho_max ** max(m - 2.0, 0.0) * grad_max**2
            )
        if not appendix_a:
            if kernels.viscosity is None:
                raise ValueError("viscosity tables missing; use appendix_a=True")
            L += sched.epsilon_star * kernels.viscosity.table.hessian_inf_norm()
        cache[key] = L
    return c_stab / cache[key]


def _velocities(state: ParticleState, kernels: KernelSet, appendix_a: bool) -> np.ndarray:
    """Total velocity without the decomposition.

    For m = 2 the three gradients combine linearly into the single pair
    potential U, so one table interpolation suffices; identical to summing
    compute_forces addends up to float associativity.
    """
    sched = state.schedule or kernels.schedule
    if sched.m == 2.0:
        U = kernels.pair_kernel(include_viscosity=not appendix_a)
        (s,) = _pair_sums(state.positions, [U])
        return -s / state.N
    return compute_forces(state, kernels, appendix_a=appendix_a).velocities


def step(
    state: ParticleState,
    kernels: KernelSet,
    dt: float,
    method: str = "rk4",
    appendix_a: bool = False,
) -> ParticleState:
    """Advance one explicit step (euler, heun, or rk4) and wrap to the torus."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dt_max = stable_dt(state, kernels, appendix_a=appendix_a)
    flags = dict(state.meta)
    if dt > dt_max:
        warnings.warn(f"dt={dt:.3e} exceeds stable_dt={dt_max:.3e}", RuntimeWarning)
        flags["dt_warning"] = True

    def rhs(pos):
        tmp = ParticleState(positions=pos, time=state.time, schedule=state.schedule)
        return _velocities(tmp, kernels, appendix_a=appendix_a)

    X = state.positions
    if method == "euler":
        Xn = X + dt * rhs(X)
    elif method == "heun":
        k1 = rhs(X)
        k2 = rhs(wrap(X + dt * k1))
        Xn = X + 0.5 * dt * (k1 + k2)
    elif method == "rk4":
        k1 = rhs(X)
        k2 = rhs(wrap(X + 0.5 * dt * k1))
        k3 = rhs(wrap(X + 0.5 * dt * k2))
        k4 = rhs(wrap(X + dt * k3))
        Xn = X + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ParticleState(
        positions=wrap(Xn), time=state.time + dt, schedule=state.schedule, meta=flags
    )


def discrete_energy(
    state: ParticleState, kernels: KernelSet, appendix_a: bool = False
) -> float:
    """(1/(2N^2)) sum_ij U(X_i - X_j) with the m=2 pair potential U.

    This is the interaction form of the free energy on the empirical measure;
    particle forces are exactly -N times its position gradient.
    """
    sched = state.schedule or kernels.schedule
    if sched.m != 2.0:
        raise ValueError("discrete energy is defined for m = 2 only")
    U = kernels.pair_kernel(include_viscosity=not appendix_a)
    (s,) = _pair_sums(state.positions, [U], gradient=False)
    return float(s.sum()) / (2.0 * state.N**2)
