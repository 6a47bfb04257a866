import numpy as np
import pytest

from test_pde_local import cos_product_density, count_transforms

from torusdpa.fields import GridField
from torusdpa.kernels import build_kernel_set, schedule_from_epsilon
from torusdpa.pde_nonlocal import _step, run_nonlocal, step_nonlocal
from torusdpa.spectral import k_squared


@pytest.fixture(scope="module")
def grid_setup():
    sched = schedule_from_epsilon(
        0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3, alpha=0.08
    )
    kset = build_kernel_set(sched, kind="truncated-gaussian", table_points=512,
                            omega_moment=2 * sched.epsilon**2)
    return sched, kset


def sine_density(n=512, amp=0.3):
    x = np.arange(n) / n
    vals = 1.0 + amp * np.sin(2 * np.pi * x)
    return GridField(vals / (vals.sum() / n))


class TestStep:
    def test_constant_steady(self, grid_setup):
        sched, kset = grid_setup
        rho = GridField.constant(1.0, 512)
        new = step_nonlocal(rho, sched, kset, 1e-4)
        assert np.max(np.abs(new.values - 1.0)) == 0.0

    def test_cfl_violation_names_dt(self, grid_setup):
        sched, kset = grid_setup
        rho = sine_density()
        with pytest.raises(ValueError, match="admissible"):
            step_nonlocal(rho, sched, kset, 1.0)

    def test_mass_conserved(self, grid_setup):
        sched, kset = grid_setup
        rho = sine_density()
        new = step_nonlocal(rho, sched, kset, 1e-5)
        assert new.mass() == pytest.approx(rho.mass(), abs=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 1e-3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_transforms_per_step(self, monkeypatch, grid_setup, kset_2d, d, nu):
        # with the set's spectra cached: rho forward, rho*ot inverse, the
        # power forward and d gradient inverses; the nu-diffusion adds 2
        sched, kset = grid_setup if d == 1 else (kset_2d.schedule, kset_2d.at_resolution(128))
        rho = cos_product_density(kset.n, d)
        step_nonlocal(rho, sched, kset, 1e-6, nu)
        calls = count_transforms(monkeypatch)
        step_nonlocal(rho, sched, kset, 1e-6, nu)
        assert len(calls) == 3 + d + (2 if nu > 0 else 0)

    def test_heat_decay_rate(self):
        # transport off (v = 0), pure implicit nu-diffusion: k=1 decays at
        # exp(-nu (2 pi)^2 t) within 2%
        nu, dt, steps = 0.5, 1e-5, 200
        rho = sine_density()
        r = rho
        for _ in range(steps):
            r = _step(r, [np.zeros(512)], np.inf, dt, nu, k_squared(512, 1))
        amp0 = np.abs(np.fft.fft(rho.values)[1])
        ampT = np.abs(np.fft.fft(r.values)[1])
        rate = np.log(ampT / amp0) / (dt * steps)
        assert rate == pytest.approx(-nu * (2 * np.pi) ** 2, rel=0.02)


class TestRun:
    def test_single_nu_entry(self, grid_setup):
        sched, kset = grid_setup
        run = run_nonlocal(sine_density(), sched, kset, T=1e-3, nu_sequence=(0.0,))
        assert len(run.traces) == 1
        assert run.l2_differences == []
        assert run.traces[0].mass_drift <= 1e-12

    def test_negative_nu_rejected(self, grid_setup):
        sched, kset = grid_setup
        with pytest.raises(ValueError, match="nonnegative"):
            run_nonlocal(sine_density(), sched, kset, T=1e-4, nu_sequence=(0.0, -1e-3))

    def test_positivity(self, grid_setup):
        sched, kset = grid_setup
        run = run_nonlocal(sine_density(amp=0.9), sched, kset, T=5e-3)
        assert run.traces[0].min_value >= -1e-12

    def test_nu_sequence_cauchy(self, grid_setup):
        sched, kset = grid_setup
        run = run_nonlocal(
            sine_density(), sched, kset, T=5e-3, nu_sequence=(1e-2, 5e-3, 2.5e-3)
        )
        diffs = run.l2_differences
        assert len(diffs) == 2
        assert diffs[1] < diffs[0]

    def test_free_energy_nonincreasing(self, grid_setup):
        sched, kset = grid_setup
        run = run_nonlocal(sine_density(), sched, kset, T=1e-2)
        F = [rep.F_eps_alpha for rep in run.traces[0].reports]
        assert all(b <= a + 1e-8 for a, b in zip(F, F[1:]))
