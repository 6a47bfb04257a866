import copy

import numpy as np
import pytest

from torusdpa.fields import GridField, energy_E_m
from torusdpa.pde_local import (
    UNDERSHOOT_TOL,
    LocalSolver,
    LocalSolverConfig,
    ch_operator,
    run_local,
)


def smooth_random_density(n=256, seed=7, modes=6, floor=0.05):
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    vals = np.ones(n)
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2) * 0.2 / k
        vals += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    vals = np.maximum(vals, floor)
    return GridField(vals / (vals.sum() / n))


def cos_product_density(n, d):
    return GridField.from_function(
        lambda *xs: 1.0 + 0.3 * np.prod([np.cos(2 * np.pi * x) for x in xs], axis=0), n, d
    )


def count_transforms(monkeypatch):
    """Counts every np.fft call; returns the list the calls append to."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _fn=fn, **kw: calls.append(1) or _fn(*a, **kw))
    return calls


class TestStepLocal:
    def test_uniform_steady_state(self):
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5)
        rho = GridField.constant(1.0, 256)
        new, _ = LocalSolver(cfg, rho).step(rho)
        assert np.max(np.abs(new.values - 1.0)) <= 1e-12

    def test_mass_conservation_1000_steps(self):
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-3)
        rho = smooth_random_density(128)
        run = run_local(rho, cfg)
        assert run.flags["mass_drift"] <= 1e-10

    def test_linear_decay_rate(self):
        # rho = 1 + 1e-4 cos(2 pi x): the k=1 mode decays at
        # sigma(1) = m (2 pi)^2 - (2 pi)^4 (here m = 2), within 5%
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-3)
        x = np.arange(256) / 256
        rho = GridField(1.0 + 1e-4 * np.cos(2 * np.pi * x))
        run = run_local(rho, cfg)
        amp0 = np.abs(np.fft.fft(rho.values)[1])
        ampT = np.abs(np.fft.fft(run.final.values)[1])
        rate = np.log(ampT / amp0) / cfg.T
        sigma = 2.0 * (2 * np.pi) ** 2 - (2 * np.pi) ** 4
        assert rate == pytest.approx(sigma, rel=0.05)

    def test_blowup_detector(self):
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5, blowup_threshold=1.0)
        rho = smooth_random_density(128)
        solver = LocalSolver(cfg, rho)
        with pytest.raises(RuntimeError, match="blow-up"):
            solver.step(rho)

    def test_c0_floor(self):
        rho = smooth_random_density(128)
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5, C0=0.1)
        with pytest.raises(ValueError):
            LocalSolver(cfg, rho)

    @pytest.mark.parametrize("d, expected", [(1, 7), (2, 11)])
    def test_transforms_per_step(self, monkeypatch, d, expected):
        # every operator of the step stays in spectral space, the new spectrum
        # is inverted once, and the new modified energy comes by Parseval
        # from it
        calls = count_transforms(monkeypatch)
        rho = cos_product_density(32, d)
        solver = LocalSolver(LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5), rho)
        new, diag = solver.step(rho)
        assert len(calls) == expected
        calls.clear()
        mod = solver.modified_energy(new.values, solver.r)
        assert len(calls) == 1
        assert diag["modified_energy"] == pytest.approx(mod, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d, per_step", [(1, 7), (2, 11)])
    def test_run_transforms(self, monkeypatch, d, per_step):
        # beyond the steps: the modified energy at t = 0 and the free energy
        # at the two samples, t = 0 and t = T; none for the energy check
        calls = count_transforms(monkeypatch)
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5, energy_every=1e-5)
        run = run_local(cos_product_density(32, d), cfg)
        assert len(run.records) == 2
        assert len(calls) == 10 * per_step + 3

    def test_config_left_alone_and_c0_per_density(self):
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5)
        before = copy.deepcopy(cfg)
        rhos = [smooth_random_density(128, seed=seed) for seed in (1, 2)]
        solvers = [LocalSolver(cfg, rho) for rho in rhos]
        assert cfg == before
        c0s = [s.C0 for s in solvers]
        assert c0s == [2.0 * energy_E_m(rho, 2.0) + 1.0 for rho in rhos]
        assert c0s[0] != c0s[1]


class TestRunLocal:
    def test_equal_steps_end_exactly_at_T(self, monkeypatch):
        calls = []
        step = LocalSolver.step
        monkeypatch.setattr(LocalSolver, "step",
                            lambda self, rho: calls.append(self.cfg.dt) or step(self, rho))
        rho = smooth_random_density(64)
        for T, nsteps in ((1.05e-5, 11), (1e-3, 1000)):
            calls.clear()
            run = run_local(rho, LocalSolverConfig(dt=1e-6, m=2.0, T=T))
            assert len(calls) == nsteps
            assert abs(run.records[-1]["t"] - T) <= 1e-18

    def test_zero_time_returns_initial(self):
        rho = smooth_random_density(128)
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=0.0)
        run = run_local(rho, cfg)
        assert np.array_equal(run.final.values, rho.values)

    def test_uniform_energy_trace_flat(self):
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=5e-5)
        run = run_local(GridField.constant(1.0, 128), cfg)
        mods = [r["modified_energy"] for r in run.records]
        assert max(mods) - min(mods) <= 1e-12

    def test_sav_modified_energy_monotone(self):
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=3e-4)
        run = run_local(smooth_random_density(256), cfg)
        assert run.flags["energy_increases"] == 0
        mods = [r["modified_energy"] for r in run.records]
        assert all(b <= a + 1e-10 for a, b in zip(mods, mods[1:]))

    def test_undershoot_reported_not_clipped(self):
        # a bump with a vacuum region: the fourth-order flow dips below zero
        # at the edge of the support, and the solver must report it
        x = np.arange(128) / 128
        bump = np.maximum(np.cos(2 * np.pi * x), 0.0) ** 2
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-4)
        run = run_local(GridField(bump / bump.mean()), cfg)
        assert run.flags["undershoot_steps"] > 0
        assert run.flags["min_value"] < UNDERSHOOT_TOL
        assert run.final.values.min() < UNDERSHOOT_TOL  # not clipped


class TestSpectralAccuracy:
    def test_operator_superquartic_convergence(self):
        # density with a prescribed geometric spectrum; the exact operator
        # div(rho grad lap rho) + lap rho^2 is computed in coefficient space
        # by direct convolution of the (finite) Fourier series -- a route
        # independent of the grid transforms.  Error must decay faster than
        # n^-4 over n in {64, 128, 256}.
        decay, amp, kmax = 0.22, 0.1, 240
        ks = np.arange(1, kmax + 1)
        a = amp * np.exp(-decay * ks)

        # two-sided complex coefficients on indices -kmax..kmax
        size = 2 * kmax + 1
        c = np.zeros(size, dtype=complex)
        c[kmax] = 1.0
        c[kmax + 1 :] = a / 2.0
        c[:kmax][::-1] = a / 2.0
        idx = np.arange(-kmax, kmax + 1)
        two_pi_ik = 2j * np.pi * idx
        q = two_pi_ik * (-((2 * np.pi * idx) ** 2)) * c  # grad lap rho
        conv_len = 2 * size - 1
        prod = np.convolve(c, q)  # rho * grad lap rho
        rho_sq = np.convolve(c, c)
        jdx = np.arange(-(2 * kmax), 2 * kmax + 1)
        op_hat = 2j * np.pi * jdx * prod + (-((2 * np.pi * jdx) ** 2)) * rho_sq

        def eval_series(coeffs, indices, x):
            return np.real(
                np.sum(coeffs[None, :] * np.exp(2j * np.pi * np.outer(x, indices)), axis=1)
            )

        errs = []
        for n in (64, 128, 256):
            x = np.arange(n) / n
            rho_vals = eval_series(c, idx, x)
            exact = eval_series(op_hat, jdx, x)
            got = ch_operator(GridField(rho_vals), m=2).values
            errs.append(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 4.0 and order2 > 4.0
