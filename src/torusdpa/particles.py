"""The deterministic particle system: initialization, forces, integration.

Particles carry uniform weight 1/N and move by the pairwise ODE

    dX_i/dt = -(1/N) sum_j grad W(X_ij)  [interaction]
              + aggregation term          (m = 2: +(2/N) sum_j grad(ot*ot)(X_ij);
                                           general m: density-weighted form)
              - eps_star (1/N) sum_j grad R_alpha(X_ij)  [viscosity]

with X_ij the minimum-image displacement.  Self terms j = i are kept; the
kernels' gradients vanish at 0, and the computed self terms vanish to
roundoff.  Appendix-A mode, which the kernel set fixes (KernelSet.appendix_a),
drops the viscosity term entirely instead of sending eps_star to 0.

A state is one system, positions (N, d), or a batch of B independent systems
of N particles each, (B, N, d), every particle of a system weighted 1/N; the
systems share the kernel set and never interact.  Every sum runs on the
kernel set's particle mesh (spectral.ParticleMesh): one spread of the
particles (_spread), the three addends' multipliers as the set scales them
(KernelSet.particle_mesh), and a gather at the particles.  The mesh serves
a whole batch with the transforms of one system: one stencil, one spread
into the systems' stacked grids, and stacked transforms, so each system
steps bit for bit as alone; discrete_energy and momentum take one system.
One addend builder (_addends) holds the sums' only m branch, the aggregation's;
compute_forces takes the gradient of each addend, the stepping velocity the
gradient of their sum, and discrete_energy reads the same spread.  The
kernels are trigonometric polynomials, so the sums are those of the dense
Fourier series over the mesh's box of modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import GridField
from .geometry import wrap
from .kernels import KernelSet
from .spectral import inner

__all__ = [
    "ParticleState",
    "ForceField",
    "init_quantile",
    "compute_forces",
    "step",
    "stable_dt",
    "fixed_steps",
    "check_steps",
    "discrete_energy",
    "momentum",
    "METHODS",
]

# the explicit integrators of step, in order of stages
METHODS = ("euler", "heun", "rk4")


@dataclass
class ParticleState:
    """N particle positions on the torus with uniform weights 1/N, (N, d), or
    B systems of them, (B, N, d), with N and the weights per system; the
    parameters they move under are those of the kernel set they meet."""

    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim not in (2, 3) or pos.shape[-1] not in (1, 2):
            raise ValueError(f"particle positions must be (N, d) or (B, N, d) with d 1 or 2, "
                             f"got shape {pos.shape}")
        self.positions = wrap(pos)

    @property
    def N(self) -> int:
        return self.positions.shape[-2]

    @property
    def d(self) -> int:
        return self.positions.shape[-1]

    @property
    def weight(self) -> float:
        return 1.0 / self.N


@dataclass
class ForceField:
    """Velocities, the sum of their three addends, and the addends."""

    velocities: np.ndarray
    term_interaction: np.ndarray
    term_aggregation: np.ndarray
    term_viscosity: np.ndarray


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


def init_quantile(rho0: GridField, N: int) -> ParticleState:
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
    return ParticleState(positions=pos, time=0.0)


# ---------------------------------------------------------------------------
# forces


def _spread(state: ParticleState, kernels: KernelSet) -> tuple:
    """(mesh, multipliers, stencil, mu_hat): the set's particle mesh and addend
    multipliers (KernelSet.particle_mesh, whose viscosity multiplier raises
    the one error for a set without R_hat), the particles' stencil, and the
    measure's coefficients from one spread of the weights 1/N and one
    forward transform."""
    mesh, mult = kernels.particle_mesh
    stencil = mesh.stencil(state.positions)
    weights = np.full(state.positions.shape[:-1], 1.0 / state.N)
    return mesh, mult, stencil, mesh.transform(stencil, weights)


def _addends(state: ParticleState, kernels: KernelSet) -> tuple:
    """(mesh, stencil, coefficients): per addend of the velocity, interaction,
    aggregation and (without appendix-A mode) viscosity, the coefficients
    whose gradient at the particles it is, each its multiplier times the
    measure's.  At m != 2 the aggregation's are its multiplier times a
    spread weighted by the smoothed density at the particles (a gather of
    the smoothing multiplier times the measure's) to the (m - 1)th power."""
    mesh, mult, stencil, mu = _spread(state, kernels)
    m = kernels.schedule.m
    if m == 2.0:
        agg = mu
    else:
        dens = mesh.values(stencil, mult["smoothing"] * mu)
        agg = mesh.transform(stencil, dens ** (m - 1.0) / state.N)
    coeffs = {"interaction": mult["interaction"] * mu, "aggregation": mult["aggregation"] * agg}
    if "viscosity" in mult:
        coeffs["viscosity"] = mult["viscosity"] * mu
    return mesh, stencil, coeffs


def compute_forces(
    state: ParticleState,
    kernels: KernelSet,
    appendix_a: bool | None = None,
) -> ForceField:
    """Evaluate the particle velocities and their three-term decomposition.

    Each addend is the gathered gradient of its coefficients (_addends):
    one spread of the particles (weights 1/N), and per addend d inverse
    transforms and gathers, 1 + 3d transforms at m = 2 (1 + 2d in
    appendix-A mode) and 3 + 3d otherwise.  Each addend is an antisymmetric
    operator's quadratic form summed over the particles, so the momentum
    stays at roundoff.  For m = 2 the velocities are -N times the position
    gradient of discrete_energy, to the mesh's accuracy.  m, eps_star and
    appendix-A mode are the kernel set's; appendix_a, when given, must equal
    the set's mode (ValueError otherwise) and selects nothing.
    """
    if appendix_a is not None and bool(appendix_a) != kernels.appendix_a:
        raise ValueError(f"appendix_a={appendix_a} does not match the kernel set's mode "
                         f"(appendix_a={kernels.appendix_a}, fixed by build_kernel_set)")
    mesh, stencil, coeffs = _addends(state, kernels)
    terms = {name: mesh.gradient(stencil, c) for name, c in coeffs.items()}
    term1, term2 = terms["interaction"], terms["aggregation"]
    term3 = terms.get("viscosity", np.zeros_like(term1))
    return ForceField(term1 + term2 + term3, term1, term2, term3)


def momentum(forces: ForceField) -> np.ndarray:
    """Exact (fsum) total velocity per axis."""
    v = forces.velocities
    return np.array([math.fsum(v[:, ax].tolist()) for ax in range(v.shape[1])])


# ---------------------------------------------------------------------------
# time stepping


def stable_dt(kernels: KernelSet) -> float:
    """0.5 / L with L the set's Lipschitz bound of the particle velocity
    (KernelSet.force_lipschitz): at m = 2, 0.5 / sup |Hess U| of the pair
    potential.  The velocity's Jacobian over the N particles is at most 2 L
    (a particle's own pull and its partners'), so dt * 2 L is 1 at this
    step and 2 at dt_safety 2, the edge of heun's real stability interval.
    dt "auto" is dt_safety times it, and a run plan warns once of an
    explicit integrator.dt above it."""
    return 0.5 / kernels.force_lipschitz


# every stepping loop records at t = 0, at the first step at or past each
# multiple of its cadence less this tolerance, and at its last step
SAMPLE_TOL = 1e-14
# the most steps a run may plan or take: fig1-2d's largest plan is 17 500
# steps, and a config that asks for more fails before it runs
MAX_STEPS = 10**6


def fixed_steps(T: float, dt_max: float, source: str = "dt") -> tuple:
    """(nsteps, dt): the fewest equal steps of at most dt_max that end exactly at T.

    A quotient T/dt_max within 1e-9 relative of an integer counts as that
    integer, so roundoff in the quotient never adds a step.  T <= 0 takes no
    steps and returns dt_max.  A count above MAX_STEPS raises ValueError,
    naming source, what set dt_max.
    """
    if T <= 0:
        return 0, dt_max
    q = T / dt_max if dt_max > 0 else math.inf
    if q <= MAX_STEPS + 1:  # past it q may be inf, and is refused as it stands
        q = max(1, round(q) if abs(q - round(q)) <= 1e-9 * q else math.ceil(q))
    what = f"{source} sets a step of {dt_max:.3g}, so a run of length {T:g}"
    return check_steps(q, what), T / q


def check_steps(nsteps, what: str):
    """nsteps, or ValueError when it passes MAX_STEPS; `what` says what
    takes the steps."""
    if not nsteps <= MAX_STEPS:
        raise ValueError(f"{what} takes {nsteps:.4g} steps, more than the cap of "
                         f"{MAX_STEPS:.0e} (particles.MAX_STEPS)")
    return nsteps


def _velocities(state: ParticleState, kernels: KernelSet) -> np.ndarray:
    """Total velocity without the decomposition: the gradient of the sum of
    the addends' coefficients (_addends), the same as compute_forces' to
    roundoff, with 1 + d transforms at m = 2 and 3 + d otherwise."""
    mesh, stencil, coeffs = _addends(state, kernels)
    return mesh.gradient(stencil, sum(coeffs.values()))


def step(
    state: ParticleState,
    kernels: KernelSet,
    dt: float,
    method: str = "rk4",
) -> ParticleState:
    """Advance one explicit step (one of METHODS) and wrap to the torus, at any
    dt > 0: the run plan compares dt with stable_dt (harness._particle_steps)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {', '.join(METHODS)}")
    if dt <= 0:
        raise ValueError("dt must be positive")

    def rhs(pos):
        # ParticleState wraps pos (and rejects non-finite coordinates)
        return _velocities(ParticleState(positions=pos, time=state.time), kernels)

    X = state.positions
    if method == "euler":
        Xn = X + dt * rhs(X)
    elif method == "heun":
        k1 = rhs(X)
        k2 = rhs(X + dt * k1)
        Xn = X + 0.5 * dt * (k1 + k2)
    else:  # rk4
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * dt * k1)
        k3 = rhs(X + 0.5 * dt * k2)
        k4 = rhs(X + dt * k3)
        Xn = X + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ParticleState(positions=Xn, time=state.time + dt)


def discrete_energy(state: ParticleState, kernels: KernelSet) -> float:
    """(1/(2N^2)) sum_ij U(X_i - X_j) with the m=2 pair potential U, self
    terms included, as (1/2) sum_k U_hat(k) |mu_hat(k)|^2 over the mesh's box
    from one spread and one forward transform (no gather).

    This is the interaction form of the free energy on the empirical measure;
    particle forces are -N times its position gradient, to the mesh's accuracy.
    U, m and appendix-A mode are the kernel set's.
    """
    if kernels.schedule.m != 2.0:
        raise ValueError("discrete energy is defined for m = 2 only")
    if state.positions.ndim != 2:
        raise ValueError("discrete energy takes one system, positions (N, d)")
    mesh, mult, _, mu = _spread(state, kernels)
    return 0.5 * inner(mult["U"] * mu, mu, mesh.box)
