import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_pde_local import count_transforms
from torusdpa.kernels import (
    KernelEmbedError,
    KernelResolutionError,
    KernelTable,
    build_kernel_set,
    export_kernel_csv,
    lambda_convexity_constant,
    make_mollifier,
    make_viscosity_kernel,
    schedule_from_epsilon,
)
from torusdpa.oracles import bump_profile, quad_convolve
from torusdpa.particles import ParticleState, stable_dt
from torusdpa.spectral import forward_transform, k_squared, minimage_coords


class TestMollifier:
    def test_bump_moment_target(self):
        fam = make_mollifier("compact-bump", 0.1, d=1, second_moment_target=0.02)
        rep = fam.validate()
        assert rep["ok"], rep
        assert fam.table.second_moment()[0] == pytest.approx(0.02, abs=1e-6)
        assert fam.table.mass() == pytest.approx(1.0, abs=1e-8)
        assert abs(fam.table.first_moment()[0]) < 1e-10

    def test_even_symmetry_exact(self):
        for kind in ("compact-bump", "truncated-gaussian"):
            fam = make_mollifier(kind, 0.08, d=1)
            assert fam.table.symmetry_error() == 0.0

    def test_gaussian_mass_across_scales(self):
        for eps in (0.1, 0.05, 0.02):
            fam = make_mollifier("truncated-gaussian", eps, d=1)
            assert abs(fam.table.mass() - 1.0) <= 1e-8

    def test_2d_invariants(self):
        fam = make_mollifier("truncated-gaussian", 0.1, d=2, table_points=256)
        rep = fam.validate()
        assert rep["ok"], rep

    def test_embed_error(self):
        with pytest.raises(KernelEmbedError):
            make_mollifier("compact-bump", 0.2, d=1, second_moment_target=0.08)

    def test_resolution_error(self):
        with pytest.raises(KernelResolutionError):
            make_mollifier("compact-bump", 0.01, d=1, normalize_moment=False,
                           table_points=256)

    def test_natural_mode_records_moment(self):
        fam = make_mollifier("compact-bump", 0.25, d=1, normalize_moment=False)
        assert fam.profile_width == 0.25
        assert fam.second_moment_target == pytest.approx(
            float(fam.table.second_moment()[0]), abs=1e-15
        )


class TestEvalGrad:
    def test_zero_at_origin_and_odd(self, kset_1d):
        t = kset_1d.W
        assert np.all(t.grad_at([[0.0]]) == 0.0)
        pts = np.array([[0.13], [0.31], [-0.22]])
        assert np.array_equal(t.grad_at(pts), -t.grad_at(-pts))

    def test_matches_analytic_gaussian(self):
        fam = make_mollifier("truncated-gaussian", 0.05, d=1)
        sig = fam.profile_width
        cut = fam.table.support_radius
        rng = np.random.default_rng(3)
        pts = (rng.random((100, 1)) - 0.5) * 0.9
        from scipy.integrate import quad

        Z = quad(lambda y: math.exp(-0.5 * y * y / sig**2), -cut, cut, epsabs=1e-14)[0]
        r = pts[:, 0]
        expected = np.where(
            np.abs(r) <= cut, -r / sig**2 * np.exp(-0.5 * r * r / sig**2) / Z, 0.0
        )
        got = fam.table.grad_at(pts)[:, 0]
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) / scale < 1e-4


class TestSplineInterpolant:
    def test_reproduces_table_at_nodes(self, kset_1d, kset_2d):
        for table in (kset_1d.W, kset_1d.omega.table, kset_2d.pair_kernel(), kset_2d.W):
            xis = minimage_coords(table.n, table.d)
            nodes = np.stack([xi.ravel() for xi in xis], axis=-1)
            got = table.value_at(nodes).reshape(table.values.shape)
            assert np.max(np.abs(got - table.values)) <= 1e-13 * np.max(np.abs(table.values))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(8, 48), st.integers(0, 2**32 - 1))
    def test_gradient_is_derivative_of_values(self, d, n, seed):
        # any table, any point off the parity kinks at 0 (|x_i| >= 0.01)
        rng = np.random.default_rng(seed)
        table = KernelTable(rng.standard_normal((n,) * d))
        pts = rng.uniform(0.01, 0.99, (16, d)) * rng.choice([-1.0, 1.0], (16, d))
        step = 1e-6 / n
        got = table.grad_at(pts)
        for ax in range(d):
            e = np.zeros(d)
            e[ax] = step
            fd = (table.value_at(pts + e) - table.value_at(pts - e)) / (2.0 * step)
            scale = n * np.max(np.abs(table.values))
            assert np.max(np.abs(got[:, ax] - fd)) <= 1e-6 * scale

    @pytest.mark.parametrize("d", [1, 2])
    def test_transform_counts(self, monkeypatch, d):
        # a composed table is one inverse transform, and its interpolant's
        # coefficients are built once, on first use, from the same spectrum
        # (one transform); a table of values needs a forward transform too
        rng = np.random.default_rng(d)
        spec = forward_transform(rng.standard_normal((32,) * d))
        calls = count_transforms(monkeypatch)
        table = KernelTable.from_spectrum(spec, 32)
        assert len(calls) == 1
        pts = rng.random((5, d))
        table.value_at(pts)
        assert len(calls) == 2
        table.grad_at(pts)
        table.value_at(pts)
        export_kernel_csv(table, io.StringIO())
        assert len(calls) == 2
        KernelTable(table.values).value_at(pts)
        assert len(calls) == 4

    @pytest.mark.parametrize("d", [1, 2])
    def test_node_gradients_are_grad_at_the_nodes(self, kset_1d, kset_2d, d):
        table = (kset_1d if d == 1 else kset_2d).omega_tilde.table
        nodes = np.stack([xi.ravel() for xi in minimage_coords(table.n, d)], axis=-1)
        ref = table.grad_at(nodes)
        got = table.node_gradients()
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_node_gradients_memory(self, kset_2d):
        table = kset_2d.omega_tilde.table
        table.coefficients  # built before measuring
        tracemalloc.start()
        try:
            got = table.node_gradients()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * got.nbytes


class TestSpectralSet:
    """Every composed kernel is a multiplier on the mollifier spectra and R_hat."""

    def test_set_build_transform_count(self, monkeypatch):
        # 2 mollifier spectra, 3 x 3 Hessian transforms (W, ot*ot, R) for
        # stable_dt, 1 + 1 for the U table and its coefficients, 3 for lambda
        sched = schedule_from_epsilon(0.1, d=2, epsilon_tilde=0.22, epsilon_star=0.3,
                                      alpha=0.1)
        calls = count_transforms(monkeypatch)
        kset = build_kernel_set(sched, kind="truncated-gaussian", table_points=128)
        stable_dt(ParticleState(np.array([[0.5, 0.5]]), schedule=sched), kset)
        kset.pair_kernel().coefficients
        lambda_convexity_constant(kset)
        assert len(calls) == 16

    def test_coarse_grid_crops_the_spectra(self, kset_2d):
        # 64 points give 6.4 samples across alpha = 0.1: too few to tabulate
        # R_alpha on its own, but its spectrum crops exactly
        visc = kset_2d.viscosity
        with pytest.raises(KernelResolutionError):
            make_viscosity_kernel(visc.alpha, k=visc.k, d=2, table_points=64)
        for n2 in (128, 64):
            coarse = kset_2d.at_resolution(n2)
            assert coarse.n == n2 and coarse.viscosity.n == n2
            ref = (1.0 + visc.alpha**2 * k_squared(n2, 2)) ** (-visc.k)
            assert np.array_equal(coarse.viscosity.spectrum, ref)
            for fam, spec in zip((coarse.omega, coarse.omega_tilde), coarse.spectra):
                assert fam.table.n == n2
                assert np.max(np.abs(fam.table.fourier() - spec)) <= 1e-15
        built = make_viscosity_kernel(visc.alpha, k=visc.k, d=2, table_points=128)
        assert np.array_equal(kset_2d.at_resolution(128).viscosity.spectrum, built.spectrum)


class TestViscosity:
    def test_invariants(self):
        for d, n in ((1, 4096), (2, 256)):
            v = make_viscosity_kernel(0.1, k=4, d=d, table_points=n)
            rep = v.verify_bounds()
            assert rep["positive"] and rep["lower_ok"] and rep["upper_ok"]
            assert rep["half_reconstruction"] <= 1e-8
            assert v.spectrum.ravel()[0] == pytest.approx(1.0)  # unit mass
            assert v.table.mass() == pytest.approx(1.0, abs=1e-12)
            assert v.table.values.min() > -1e-12

    def test_parameter_floors(self):
        with pytest.raises(Exception):
            make_viscosity_kernel(0.1, k=2.0, d=1)
        with pytest.raises(Exception):
            make_viscosity_kernel(0.6, k=4, d=1)
        with pytest.raises(KernelResolutionError):
            make_viscosity_kernel(0.001, k=4, d=1, table_points=512)


class TestComposition:
    def test_gradient_zero_and_mass(self, kset_1d):
        W = kset_1d.W
        assert np.all(W.grad_at([[0.0]]) == 0.0)
        assert abs(W.mass()) <= 1e-8

    def test_against_nested_quadrature(self, kset_1d_bump):
        # W(x) = (A(x) - (omega*A)(x)) / eps^2 with A = ot*ot, by adaptive quad
        kset = kset_1d_bump
        eps = kset.schedule.epsilon
        om = bump_profile(kset.omega.profile_width)
        ot = bump_profile(kset.omega_tilde.profile_width)
        from scipy.integrate import quad

        zo = quad(om, 0, 1, epsabs=1e-13)[0]
        zt = quad(ot, 0, 1, epsabs=1e-13)[0]

        def omega_n(y):
            return om(y) / zo

        def otilde_n(y):
            return ot(y) / zt

        def A(x):
            return quad_convolve(otilde_n, otilde_n, x, tol=1e-11)

        x0 = 0.1
        wA = quad(lambda y: omega_n(y) * A(x0 - y), 0, 1, epsabs=1e-11, limit=400)[0]
        expected = (A(x0) - wA) / eps**2
        got = float(kset.W.value_at([[x0]])[0])
        assert got == pytest.approx(expected, rel=1e-6)

    def test_associativity(self, kset_1d):
        to = kset_1d.omega.table
        tt = kset_1d.omega_tilde.table
        left = to.convolve(tt).convolve(tt)
        right = to.convolve(tt.convolve(tt))
        assert np.max(np.abs(left.values - right.values)) <= 1e-10

    def test_squared_kernel_spectral_positivity(self, kset_1d):
        spec = np.real(np.fft.fft(kset_1d.smooth2.values)) / kset_1d.n
        assert spec.min() >= -1e-12


class TestSchedule:
    def test_default_derivation(self):
        s = schedule_from_epsilon(1e-3, d=1)
        assert s.epsilon_tilde == pytest.approx(0.001 ** (1.0 / 7.0), rel=1e-12)
        assert s.epsilon_tilde == pytest.approx(0.3727593720314938, rel=1e-10)
        assert s.epsilon_star == pytest.approx(0.6105402296585326, rel=1e-10)
        assert s.alpha == math.exp(-1000.0)  # underflows to exactly 0.0
        assert s.alpha == 0.0

    def test_ratio_decreasing(self):
        vals = [0.01, 0.005, 0.001]
        ratios = [
            s.epsilon / s.epsilon_tilde ** ((s.d + 6) / 2.0)
            for s in (schedule_from_epsilon(e, d=1) for e in vals)
        ]
        assert ratios[0] > ratios[1] > ratios[2]
        for e, r in zip(vals, ratios):
            assert r == pytest.approx(math.sqrt(e), rel=1e-12)

    def test_alpha_zero_override_accepted(self):
        s = schedule_from_epsilon(0.1, d=1, alpha=0.0)
        assert s.alpha == 0.0

    def test_ordering_violations_named(self):
        with pytest.raises(ValueError, match="epsilon_tilde"):
            schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.05)
        with pytest.raises(ValueError, match="epsilon_star"):
            schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.3, epsilon_star=0.2)


class TestLambdaConstant:
    def test_sign_and_alpha_monotonicity(self):
        lams = []
        for alpha in (0.2, 0.1, 0.05):
            s = schedule_from_epsilon(
                0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3, alpha=alpha
            )
            lams.append(lambda_convexity_constant(schedule=s, prefactor=1.0))
        assert all(l <= 0 for l in lams)
        assert abs(lams[0]) < abs(lams[1]) < abs(lams[2])

    def test_alpha_zero_rejected(self):
        s = schedule_from_epsilon(0.1, d=1, alpha=0.0)
        with pytest.raises(ValueError):
            lambda_convexity_constant(schedule=s, prefactor=1.0)

    def test_default_path_matches_fd_hessian(self):
        # spec example scales: 1-d bumps at natural widths, eps=0.1/et=0.4/alpha=0.2
        sched = schedule_from_epsilon(
            0.1, d=1, epsilon_tilde=0.4, epsilon_star=0.7, alpha=0.2
        )
        kset = build_kernel_set(
            sched, kind="compact-bump", normalize_omega=False, normalize_tilde=False
        )
        lam = lambda_convexity_constant(kset)
        U = kset.pair_kernel(include_viscosity=True)
        h = U.h
        vals = U.values
        fd = (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / h**2
        fd_lam = min(0.0, float(fd.min()))
        assert lam <= 0.0
        assert lam == pytest.approx(fd_lam, rel=0.02)


def test_resample_preserves_moments(kset_1d):
    fam = kset_1d.at_resolution(512).omega
    assert fam.table.n == 512
    assert fam.table.mass() == pytest.approx(1.0, abs=1e-10)
    assert float(fam.table.second_moment()[0]) == pytest.approx(
        kset_1d.omega.second_moment_target, abs=1e-8
    )


def test_kernel_csv_export(tmp_path, kset_1d):
    from torusdpa.kernels import export_kernel_csv

    path = tmp_path / "omega.csv"
    export_kernel_csv(kset_1d.omega, path)
    head = path.read_text().splitlines()
    assert head[0] == "x1,value,grad1"
    assert len(head) == kset_1d.n + 1
