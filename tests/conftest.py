import numpy as np
import pytest

from torusdpa.fields import GridField
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


@pytest.fixture()
def count_transforms(monkeypatch):
    """Counts every np.fft call for the rest of the test: the list each call
    appends to.  spectral.py is the one caller, and a transform is d calls
    (one per axis)."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _fn=fn, **kw: calls.append(1) or _fn(*a, **kw))
    return calls


@pytest.fixture(scope="session")
def cos_product_density():
    """The density 1 + 0.3 prod_i cos(2 pi x_i) on the n^d grid, as a
    function of (n, d)."""
    def density(n, d):
        return GridField.from_function(
            lambda *xs: 1.0 + 0.3 * np.prod([np.cos(2 * np.pi * x) for x in xs], axis=0), n, d
        )
    return density


@pytest.fixture(scope="session")
def sampled_times():
    """The record times every stepping loop keeps, as a function of its step
    end times (ending at T) and its cadence: 0, the first step at or past
    each multiple of the cadence below T, and T."""
    def times(step_ends, every):
        T = step_ends[-1]
        firsts = {min(t for t in step_ends if t >= j * every - 1e-12)
                  for j in range(1, int(T / every) + 1) if j * every < T - 1e-12}
        return sorted({0.0, T} | firsts)
    return times
