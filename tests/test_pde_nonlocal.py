from types import SimpleNamespace

import numpy as np
import pytest

from torusdpa.fields import GridField, velocity_field_nl
from torusdpa.kernels import build_kernel_set, schedule_from_epsilon
import torusdpa.particles as P
from torusdpa import pde_nonlocal as PN
from torusdpa.pde_nonlocal import run_nonlocal


@pytest.fixture(scope="module")
def grid_setup():
    sched = schedule_from_epsilon(
        0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3, alpha=0.08
    )
    return build_kernel_set(sched, kind="truncated-gaussian", table_points=512,
                            omega_moment=2 * sched.epsilon**2)


def sine_density(n=512, amp=0.3):
    x = np.arange(n) / n
    vals = 1.0 + amp * np.sin(2 * np.pi * x)
    return GridField(vals / (vals.sum() / n))


def only_t(rho, kernels, t):
    """A stand-in for free_energy that makes no transform."""
    return SimpleNamespace(t=t)


class TestStep:
    # the sine density's first step, CFL_SAFETY times its CFL bound, is 5.0e-5,
    # so a run to T <= 1e-5 takes one step of T

    def test_constant_steady(self, grid_setup):
        run = run_nonlocal(GridField.constant(1.0, 512), grid_setup, T=1e-4)
        assert np.max(np.abs(run.traces[0].final.values - 1.0)) == 0.0

    def test_first_step_is_the_cfl_fraction(self, grid_setup):
        rho = sine_density()
        vfaces = velocity_field_nl(rho, grid_setup, at_faces=True)
        vmax = max(float(vfaces.max()), -float(vfaces.min()))
        run = run_nonlocal(rho, grid_setup, T=1e-4, energy_every=1e-9)
        assert run.traces[0].reports[1].t == PN.CFL_SAFETY * (rho.h / (2.0 * rho.d * vmax))

    def test_mass_conserved(self, grid_setup):
        rho = sine_density()
        new = run_nonlocal(rho, grid_setup, T=1e-5).traces[0].final
        assert new.mass() == pytest.approx(rho.mass(), abs=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 1e-3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_transforms_per_step(self, count_transforms, cos_product_density, grid_setup,
                                 kset_2d, monkeypatch, d, nu):
        # with the set's spectra cached: rho forward and d gradient inverses
        # at m = 2 on a field away from vacuum; rho*ot inverse and the power
        # forward besides on a field with vacuum, where a cell of rho*ot may
        # be negative; the nu-diffusion adds 2; each transform is d calls,
        # and the d gradient inverses are one stacked pass of d calls.  A
        # run to T = 1e-6 is one step, and its energies make no transform
        monkeypatch.setattr(PN, "free_energy", only_t)
        kset = grid_setup if d == 1 else kset_2d.at_resolution(128)
        rho = cos_product_density(kset.n, d)
        vacuum = GridField(np.maximum(rho.values - 1.0, 0.0))
        run_nonlocal(rho, kset, T=1e-6, nu_sequence=(nu,))
        calls = count_transforms
        for field, velocity in ((rho, 1 + 1), (vacuum, 3 + 1)):
            calls.clear()
            run_nonlocal(field, kset, T=1e-6, nu_sequence=(nu,))
            assert len(calls) == d * (velocity + (2 if nu > 0 else 0))

    def test_heat_decay_rate(self, grid_setup, monkeypatch):
        # transport off (v = 0), so the run is one implicit nu-diffusion step
        # of T, which scales the k = 1 mode by 1/(1 + nu (2 pi)^2 T)
        monkeypatch.setattr(PN, "velocity_field_nl",
                            lambda rho, kernels, at_faces: np.zeros((1, rho.n)))
        nu, T = 0.5, 2e-3
        rho = sine_density()
        final = run_nonlocal(rho, grid_setup, T=T, nu_sequence=(nu,)).traces[0].final
        ratio = np.abs(np.fft.fft(final.values)[1]) / np.abs(np.fft.fft(rho.values)[1])
        assert ratio == pytest.approx(1.0 / (1.0 + nu * (2 * np.pi) ** 2 * T), rel=1e-12)

    def test_records_follow_the_sampling_rule(self, grid_setup, monkeypatch, sampled_times):
        monkeypatch.setattr(PN, "free_energy", only_t)
        rho, T = sine_density(), 1e-3
        # a cadence below every step records every step
        steps = [r.t for r in run_nonlocal(rho, grid_setup, T=T, energy_every=1e-9)
                 .traces[0].reports[1:]]
        every = 1.3e-4
        # no step lands on a multiple, so no record hinges on the tolerance
        assert not any(abs(t / every - round(t / every)) < 1e-6 for t in steps)
        run = run_nonlocal(rho, grid_setup, T=T, energy_every=every)
        assert [r.t for r in run.traces[0].reports] == sampled_times(steps, every)


def engine_started(*args, **kwargs):
    raise AssertionError("the run started")


class TestRun:
    def test_a_run_past_the_step_cap_fails_naming_its_t(self, grid_setup, monkeypatch):
        # the CFL-adaptive step has no count up front, so the loop itself
        # refuses a step past particles.MAX_STEPS and says how far it got
        monkeypatch.setattr(PN, "free_energy", only_t)
        rho = sine_density()
        reports = run_nonlocal(rho, grid_setup, T=1e-3, energy_every=1e-9).traces[0].reports
        nsteps = len(reports) - 1  # a record after every step
        assert nsteps > 10
        monkeypatch.setattr(P, "MAX_STEPS", nsteps)
        assert run_nonlocal(rho, grid_setup, T=1e-3).traces[0].final is not None
        monkeypatch.setattr(P, "MAX_STEPS", nsteps - 1)
        with pytest.raises(RuntimeError, match=f"reached only t = {reports[-2].t:.6g} of "
                                               f"T = 0.001"):
            run_nonlocal(rho, grid_setup, T=1e-3)

    def test_single_nu_entry(self, grid_setup):
        kset = grid_setup
        run = run_nonlocal(sine_density(), kset, T=1e-3, nu_sequence=(0.0,))
        assert len(run.traces) == 1
        assert run.l2_differences == []
        assert run.traces[0].mass_drift <= 1e-12

    def test_negative_nu_rejected(self, grid_setup, monkeypatch):
        for name in ("velocity_field_nl", "free_energy"):
            monkeypatch.setattr(PN, name, engine_started)
        with pytest.raises(ValueError, match="nonnegative"):
            run_nonlocal(sine_density(), grid_setup, T=1e-4, nu_sequence=(0.0, -1e-3))

    def test_empty_nu_sequence_is_an_empty_run(self, grid_setup):
        run = run_nonlocal(sine_density(), grid_setup, T=1e-4, nu_sequence=())
        assert run.traces == [] and run.l2_differences == []

    def test_negative_cell_rejected_before_any_step(self, grid_setup, monkeypatch):
        for name in ("velocity_field_nl", "free_energy"):
            monkeypatch.setattr(PN, name, engine_started)
        rho = sine_density()
        rho.values[7] = -1e-9
        with pytest.raises(ValueError, match="negative cells"):
            run_nonlocal(rho, grid_setup, T=1e-4)

    def test_positivity(self, grid_setup):
        kset = grid_setup
        run = run_nonlocal(sine_density(amp=0.9), kset, T=5e-3)
        assert run.traces[0].min_value >= -1e-12

    def test_nu_sequence_cauchy(self, grid_setup):
        kset = grid_setup
        run = run_nonlocal(
            sine_density(), kset, T=5e-3, nu_sequence=(1e-2, 5e-3, 2.5e-3)
        )
        diffs = run.l2_differences
        assert len(diffs) == 2
        assert diffs[1] < diffs[0]

    def test_free_energy_nonincreasing(self, grid_setup):
        kset = grid_setup
        run = run_nonlocal(sine_density(), kset, T=1e-2)
        F = [rep.F_eps_alpha for rep in run.traces[0].reports]
        assert all(b <= a + 1e-8 for a, b in zip(F, F[1:]))
