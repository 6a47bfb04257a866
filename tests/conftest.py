import numpy as np
import pytest

from torusdpa.kernels import build_kernel_set, schedule_from_epsilon


@pytest.fixture(scope="session")
def sched_1d():
    return schedule_from_epsilon(
        0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3, alpha=0.08
    )


@pytest.fixture(scope="session")
def kset_1d(sched_1d):
    # tapered gaussians: the default scenario family
    return build_kernel_set(sched_1d, kind="truncated-gaussian",
                            omega_moment=2 * sched_1d.epsilon**2)


@pytest.fixture(scope="session")
def kset_1d_bump():
    # compactly supported pair for quadrature oracles (natural widths embed)
    sched = schedule_from_epsilon(
        0.05, d=1, epsilon_tilde=0.25, epsilon_star=0.3, alpha=0.08
    )
    return build_kernel_set(sched, kind="compact-bump")


@pytest.fixture(scope="session")
def kset_2d():
    sched = schedule_from_epsilon(
        0.1, d=2, epsilon_tilde=0.22, epsilon_star=0.3, alpha=0.1
    )
    return build_kernel_set(sched, kind="truncated-gaussian", table_points=256,
                            omega_moment=2 * sched.epsilon**2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
