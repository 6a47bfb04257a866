import copy

import numpy as np
import pytest

import torusdpa.pde_local as PL
from torusdpa.fields import GridField, energy_E_m
from torusdpa.pde_local import (
    UNDERSHOOT_TOL,
    LocalSolver,
    LocalSolverConfig,
    ch_operator,
    run_local,
)
from torusdpa.spectral import forward_transform, grad_multipliers, inner


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
        solver = LocalSolver(cfg, rho)
        solver.step()
        assert np.max(np.abs(solver.values - 1.0)) <= 1e-12

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

    def test_blowup_detector(self, monkeypatch):
        monkeypatch.setattr(PL, "BLOWUP_THRESHOLD", 1.0)
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5)
        rho = smooth_random_density(128)
        solver = LocalSolver(cfg, rho)
        with pytest.raises(RuntimeError, match="blow-up"):
            solver.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_blowup_detector_catches_non_finite(self, monkeypatch, bad):
        # max|rho| > threshold is False for NaN; the check must still fire
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5)
        rho = smooth_random_density(128)
        solver = LocalSolver(cfg, rho)
        inverse = PL.inverse_transform

        def poisoned(coeffs, n):
            out = inverse(coeffs, n)
            out[5] = bad
            return out

        monkeypatch.setattr(PL, "inverse_transform", poisoned)
        with pytest.raises(RuntimeError, match="blow-up detected"):
            solver.step()

    def test_c0_floor(self):
        rho = smooth_random_density(128)
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5, C0=0.1)
        with pytest.raises(ValueError):
            LocalSolver(cfg, rho)

    @pytest.mark.parametrize("d, expected", [(1, 6), (2, 10)])
    def test_transforms_per_step(self, monkeypatch, d, expected):
        # the solver carries the spectrum of its field, every operator of the
        # step stays in spectral space, the new spectrum is inverted once, and
        # the new modified energy comes by Parseval from it
        calls = count_transforms(monkeypatch)
        rho = cos_product_density(32, d)
        solver = LocalSolver(LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5), rho)
        assert len(calls) == 1
        calls.clear()
        diag = solver.step()
        assert len(calls) == expected
        calls.clear()
        assert diag["modified_energy"] == solver.modified_energy()
        assert solver.observe(1e-6)["modified_energy"] == diag["modified_energy"]
        assert len(calls) == 0
        # the same energy from a transform of the new field
        spec = forward_transform(solver.values)
        grad = 0.5 * sum(inner(g * spec, g * spec, 32) for g in grad_multipliers(32, d))
        mod = grad + solver.r**2 - solver.C0
        assert diag["modified_energy"] == pytest.approx(mod, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("d, per_step", [(1, 6), (2, 10)])
    def test_run_transforms(self, monkeypatch, d, per_step):
        # beyond the steps only the initial spectrum: the energies at t = 0,
        # at the two samples and for the energy check come by Parseval
        calls = count_transforms(monkeypatch)
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5, energy_every=1e-5)
        run = run_local(cos_product_density(32, d), cfg)
        assert len(run.records) == 2
        assert len(calls) == 1 + 10 * per_step

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
                            lambda self: calls.append(self.cfg.dt) or step(self))
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


def bump_2d(n):
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = np.maximum(np.cos(2 * np.pi * X) * np.cos(2 * np.pi * (Y - 0.1)), 0.0) ** 2
    return GridField(vals / (vals.sum() / n**2))


def modes_1d(n):
    x = np.arange(n) / n
    vals = 1.0 + 0.7 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x + 0.4)
    return GridField(vals / (vals.sum() / n))


# final (r, modified energy, L2 norm, min, mass) of 50 steps, recorded before
# the solver carried its spectrum from step to step; the 2-d bump undershoots
# in every step, so the clipped mobility is exercised
PINNED_RUNS = {
    "2d": (bump_2d, 32, 2.0, 2e-6,
           (2.989740548396442, 10.816179332126481, 1.1371764803140811,
            -0.13997654884511412, 1.0)),
    "1d": (modes_1d, 64, 3.0, 5e-6,
           (1.4784727323804765, 2.003797839681167, 1.0656195109916835,
            0.45786187826817937, 1.0)),
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_short_runs_match_pinned_values(case):
    make, n, m, dt, expected = PINNED_RUNS[case]
    run = run_local(make(n), LocalSolverConfig(dt=dt, m=m, T=50 * dt))
    f = run.final
    last = run.records[-1]
    got = (last["sav_r"], last["modified_energy"],
           float(np.sqrt((f.values**2).sum() * f.h**f.d)), float(f.values.min()), f.mass())
    assert got == pytest.approx(expected, rel=1e-12)
    assert run.flags["energy_increases"] == 0
    assert run.flags["mass_drift"] <= 1e-10


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
