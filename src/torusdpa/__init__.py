"""Deterministic particle approximation of a fourth-order adhesion model on
the unit torus, with nonlocal/local PDE reference solvers, an admissible
kernel factory, Wasserstein metrics, and a scenario harness."""

__version__ = "0.1.0"

from .fields import (
    B_eps,
    EnergyReport,
    GridField,
    dissipation_D_eps,
    energy_E_m,
    entropy,
    free_energy,
    kde_density,
    periodic_convolve,
    velocity_field_nl,
)
from .geometry import min_image, torus_cost_sq, wrap
from .kernels import (
    KernelFamily,
    KernelSet,
    KernelTable,
    ParameterSchedule,
    ViscosityKernel,
    build_kernel_set,
    lambda_convexity_constant,
    make_mollifier,
    make_viscosity_kernel,
    schedule_from_epsilon,
)
from .particles import (
    ForceField,
    ParticleState,
    compute_forces,
    discrete_energy,
    init_quantile,
    momentum,
    stable_dt,
    step,
)
from .pde_local import LocalSolverConfig, run_local
from .pde_nonlocal import run_nonlocal, step_nonlocal
from .transport import (
    DiscreteMeasure,
    TransportPlan,
    grid_to_measure,
    w2,
    w2_circle_exact,
    w2_exact_lp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
