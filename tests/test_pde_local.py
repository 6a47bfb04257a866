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
from torusdpa.spectral import (
    forward_transform,
    freq_lattice,
    grad_multipliers,
    gradient,
    inner,
    k_squared,
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

        def poisoned(coeffs, n, *args, **kwargs):
            out = inverse(coeffs, n, *args, **kwargs)
            if out.ndim == 1:  # the new field, not the stacked gradient fields
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

    # transforms of one step at m = 2 on a field with no negative cell:
    # d for grad lap rho, the d dealiased flux products and mob^m cut to the
    # mask's columns (g_hat is twice the carried spectrum), and 1 for the new
    # field; 6 in 2-d and 4 in 1-d.  The d gradient fields come from one
    # stacked inverse transform and the d + 1 products go back in one
    # stacked forward transform, each d numpy calls, and the new field takes
    # d more: 3d numpy calls in all
    @pytest.mark.parametrize("d, transforms", [(1, 4), (2, 6)])
    def test_transforms_per_step(self, count_transforms, cos_product_density, d, transforms):
        # the solver carries the spectrum of its field, every operator of the
        # step stays in spectral space, the new spectrum is inverted once, and
        # the new modified energy comes by Parseval from it
        assert transforms == 2 * d + 2
        calls = count_transforms
        calls.clear()
        solver = LocalSolver(LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5),
                             cos_product_density(32, d))
        assert len(calls) == d
        calls.clear()
        diag = solver.step()
        assert len(calls) == 3 * d
        calls.clear()
        assert diag["modified_energy"] == solver.modified_energy()
        assert solver.observe(1e-6)["modified_energy"] == diag["modified_energy"]
        assert len(calls) == 0
        # the same energy from a transform of the new field
        spec = forward_transform(solver.values)
        grad = 0.5 * sum(inner(g * spec, g * spec, 32) for g in grad_multipliers(32, d))
        mod = grad + solver.r**2 - solver.C0
        assert diag["modified_energy"] == pytest.approx(mod, rel=1e-12, abs=1e-12)
        # an undershooting field, or m = 3, transforms g in the same stacked
        # forward pass: one transform more (2d + 3), still 3d numpy calls
        bump = bump_2d(32) if d == 2 else bump_1d(32)
        for rho, m in ((bump, 2.0), (cos_product_density(32, d), 3.0)):
            solver = LocalSolver(LocalSolverConfig(dt=1e-6, m=m, T=1e-5), rho)
            if m == 2.0:  # the bump undershoots in its first step
                assert solver.step()["min"] < 0
            calls.clear()
            solver.step()
            assert len(calls) == 3 * d

    @pytest.mark.parametrize("d, per_step", [(1, 4), (2, 6)])
    def test_run_transforms(self, count_transforms, cos_product_density, d, per_step):
        # beyond the steps only the initial spectrum: the energies at t = 0,
        # at the two samples and for the energy check come by Parseval; the
        # field stays positive, so every step takes g_hat = 2 rho_hat, its
        # per_step transforms in 3d numpy calls (two stacked passes and the
        # new field)
        assert per_step == 2 * d + 2
        calls = count_transforms
        calls.clear()
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5, energy_every=1e-5)
        run = run_local(cos_product_density(32, d), cfg)
        assert len(run.records) == 2
        assert len(calls) == d * (1 + 10 * 3)

    def test_config_left_alone_and_c0_per_density(self):
        cfg = LocalSolverConfig(dt=1e-6, m=2.0, T=1e-5)
        before = copy.deepcopy(cfg)
        rhos = [smooth_random_density(128, seed=seed) for seed in (1, 2)]
        solvers = [LocalSolver(cfg, rho) for rho in rhos]
        assert cfg == before
        c0s = [s.C0 for s in solvers]
        assert c0s == [2.0 * energy_E_m(rho, 2.0) + 1.0 for rho in rhos]
        assert c0s[0] != c0s[1]

    @pytest.mark.parametrize("d", [1, 2])
    def test_modes_past_the_mask_keep_rho0s(self, d):
        # the 2/3 mask zeroes both corrections past n/3 on every axis, so
        # those modes of the carried spectrum stay rho0's, bit for bit; the
        # 2-d bump undershoots, the 1-d field does not, so both paths run
        n = 32 if d == 2 else 64
        rho0 = bump_2d(n) if d == 2 else modes_1d(n)
        solver = LocalSolver(LocalSolverConfig(dt=2e-6, m=2.0), rho0)
        spec0 = solver.spec.copy()
        for _ in range(5):
            solver.step()
        kept = np.ones(spec0.shape, dtype=bool)
        for k in freq_lattice(n, d):
            kept = kept & (np.abs(k) <= n // 3)
        assert np.array_equal(solver.spec[~kept], spec0[~kept])
        assert not np.allclose(solver.spec[kept], spec0[kept])


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

    def test_records_follow_the_sampling_rule(self, sampled_times):
        # 10 steps of 1e-4 and a cadence of 2.5 steps
        run = run_local(smooth_random_density(32),
                        LocalSolverConfig(dt=1e-4, m=2.0, T=1e-3, energy_every=2.5e-4))
        want = sampled_times([k * 1e-4 for k in range(1, 11)], 2.5e-4)
        assert [r["t"] for r in run.records] == pytest.approx(want, abs=1e-18)

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


def bump_1d(n):
    x = np.arange(n) / n
    vals = np.maximum(np.cos(2 * np.pi * x), 0.0) ** 2
    return GridField(vals / (vals.sum() / n))


def bump_2d(n):
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = np.maximum(np.cos(2 * np.pi * X) * np.cos(2 * np.pi * (Y - 0.1)), 0.0) ** 2
    return GridField(vals / (vals.sum() / n**2))


def positive_2d(n):
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = (1.0 + 0.5 * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * (Y - 0.1))
            + 0.2 * np.sin(2 * np.pi * (X + 2 * Y)))
    return GridField(vals / (vals.sum() / n**2))


def modes_1d(n):
    x = np.arange(n) / n
    vals = 1.0 + 0.7 * np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x + 0.4)
    return GridField(vals / (vals.sum() / n))


# final (r, modified energy, L2 norm, min, mass) of 50 steps, recorded before
# the solver carried its spectrum from step to step; the 2-d bump undershoots
# in every step, so the clipped mobility is exercised, and the 1-d case runs
# at m = 3.  The positive 2-d field at m = 2 takes g_hat = 2 rho_hat in every
# step; its values were recorded while g was still transformed.  The 2-d
# bump's values were recorded again when the power-law term became
# -k^2 F[mob^m]: on a clipped mobility the chain-rule form div(mob grad g)
# differs by its spectral derivative of the kink (5.7e-7 relative here).  The
# positive fields' modes stay in 3|k| < n, where the two forms agree to
# roundoff (test_power_term_is_the_chain_rule_form_on_a_band_limited_field).
PINNED_RUNS = {
    "2d-positive": (positive_2d, 32, 2.0, 2e-6,
                    (1.465070323233564, -0.24363322788566188, 1.0097278848423785,
                     0.685640477442157, 1.0)),
    "2d": (bump_2d, 32, 2.0, 2e-6,
           (2.9897405429777693, 10.816185522865108, 1.137176496669787,
            -0.13997661546451223, 1.0)),
    "1d": (modes_1d, 64, 3.0, 5e-6,
           (1.4784727323804765, 2.003797839681167, 1.0656195109916835,
            0.45786187826817937, 1.0)),
}


@pytest.mark.parametrize("make", [positive_2d, bump_2d])
def test_run_calls_no_blas_routine(monkeypatch, make):
    # the energies are einsum sums: a BLAS dot product would wake its thread
    # pool after every step's transforms
    def refuse(*args, **kwargs):
        raise AssertionError("the local run called a BLAS routine")

    for name in ("vdot", "dot", "inner", "matmul"):
        monkeypatch.setattr(np, name, refuse)
    run = run_local(make(16), LocalSolverConfig(dt=2e-6, m=2.0, T=10 * 2e-6))
    assert len(run.records) >= 2 and run.flags["energy_increases"] == 0


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_short_runs_match_pinned_values(case):
    make, n, m, dt, expected = PINNED_RUNS[case]
    run = run_local(make(n), LocalSolverConfig(dt=dt, m=m, T=50 * dt))
    f = run.final
    last = run.records[-1]
    got = (last["sav_r"], last["modified_energy"],
           float(np.sqrt((f.values**2).sum() * f.h**f.d)), float(f.values.min()), f.mass())
    assert got == pytest.approx(expected, rel=1e-12)
    if case == "2d-positive":
        assert run.flags["min_value"] > 0
    assert run.flags["energy_increases"] == 0
    assert run.flags["mass_drift"] <= 1e-10


def band_field(n, d, K):
    """A positive field on the n^d grid whose modes have |k|_inf <= max(K, 2)."""
    return GridField.from_function(
        lambda *xs: 1.0 + 0.3 * np.sin(2 * np.pi * (xs[0] + 2 * xs[-1]) + 0.4)
        + 0.2 * np.prod([np.cos(2 * np.pi * K * x + 0.3) for x in xs], axis=0), n, d)


@pytest.mark.parametrize("d", [1, 2])
def test_power_term_is_the_chain_rule_form_on_a_band_limited_field(d):
    # the step takes lap rho^2 as -k^2 F[rho^2]; the chain-rule form
    # div(rho grad g), g = 2 rho, is the same function.  When every mode of
    # rho has 3|k|_inf < n, neither product aliases into the 2/3 mask, so the
    # two agree there to roundoff; a mode at |k| = n/3 breaks the identity
    n, cutoff = 48, 16
    cols = cutoff + 1
    mask = np.ones((n,) * (d - 1) + (cols,), dtype=bool)
    for k in freq_lattice(n, d):
        mask = mask & (np.abs(k[..., :cols]) <= cutoff)

    def mismatch(K):
        rho = band_field(n, d, K).values
        assert rho.min() > 0
        power = -k_squared(n, d)[..., :cols] * forward_transform(rho**2, cols)
        grads = gradient(forward_transform(2.0 * rho), n)
        chain = sum(g[..., :cols] * forward_transform(rho * dg, cols)
                    for g, dg in zip(grad_multipliers(n, d), grads))
        return np.linalg.norm((power - chain)[mask]) / np.linalg.norm(power[mask])

    assert mismatch(15) <= 1e-13
    assert mismatch(16) > 1e-2


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
