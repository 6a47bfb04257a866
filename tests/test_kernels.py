import io
import math

import numpy as np
import pytest

from torusdpa.fields import GridField, periodic_convolve
from torusdpa.kernels import (
    KernelEmbedError,
    KernelError,
    KernelResolutionError,
    KernelTable,
    ParameterSchedule,
    build_kernel_set,
    export_kernel_csv,
    hessian_eigs,
    hessian_inf_norm,
    lambda_convexity_constant,
    make_mollifier,
    make_viscosity_kernel,
    schedule_from_epsilon,
)
from torusdpa.oracles import bump_profile, periodic_spline, quad_convolve
from torusdpa.particles import stable_dt
from torusdpa.spectral import (
    TAIL_TOL_1D,
    column_weights,
    freq_lattice,
    gradient,
    k_squared,
    minimage_coords,
)


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
            fam = make_mollifier(kind, 0.08, d=1, second_moment_target=2 * 0.08**2)
            assert fam.table.symmetry_error() == 0.0

    def test_gaussian_mass_across_scales(self):
        for eps in (0.1, 0.05, 0.02):
            fam = make_mollifier("truncated-gaussian", eps, d=1, second_moment_target=2 * eps**2)
            assert abs(fam.table.mass() - 1.0) <= 1e-8

    def test_2d_invariants(self):
        fam = make_mollifier("truncated-gaussian", 0.1, d=2, second_moment_target=2 * 0.1**2,
                             table_points=256)
        rep = fam.validate()
        assert rep["ok"], rep

    def test_embed_error(self):
        with pytest.raises(KernelEmbedError):
            make_mollifier("compact-bump", 0.2, d=1, second_moment_target=0.08)

    def test_resolution_error(self):
        with pytest.raises(KernelResolutionError):
            make_mollifier("compact-bump", 0.01, d=1, table_points=256)

    @pytest.mark.parametrize("kind, d, target", [
        ("truncated-gaussian", 2, 0.05 * 0.1**2),  # fig1-2d's omega
        ("truncated-gaussian", 1, None),  # natural width: one sample
        ("compact-bump", 1, 0.02),
    ])
    def test_coordinates_sampled_once(self, monkeypatch, kind, d, target):
        # the moment iteration samples the grid once, and the table is bit for
        # bit the profile sampled afresh at the final width, so manifests do
        # not move; each step's moment is KernelTable.second_moment's, exactly
        from torusdpa import kernels

        grids = []
        monkeypatch.setattr(kernels, "minimage_coords",
                            lambda *a, _f=kernels.minimage_coords: grids.append(1) or _f(*a))
        fam = make_mollifier(kind, 0.1, d, second_moment_target=target,
                             table_points=512 if d == 2 else None)
        assert len(grids) == 1
        n = fam.table.n
        xis = minimage_coords(n, d)
        r2 = sum(xi * xi for xi in xis)
        table, moment = kernels._build_mollifier_table(kind, fam.profile_width,
                                                       (xis, r2, np.sqrt(r2)), 0.5 - 2.0 / n)
        assert np.array_equal(table.values, fam.table.values)
        assert moment == table.second_moment()[0]

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_bracket_reaches_a_target_near_the_torus_cap(self, monkeypatch, n):
        # a gaussian of width ~0.48 under a cut capped by the torus: the moment
        # saturates in width, the fixed-point step stalls, and the bracket's
        # midpoints finish the job
        from torusdpa import kernels

        builds = []
        build = kernels._build_mollifier_table
        monkeypatch.setattr(kernels, "_build_mollifier_table",
                            lambda *a: builds.append(1) or build(*a))
        fam = make_mollifier("truncated-gaussian", 0.2, d=1, second_moment_target=0.06,
                             table_points=n)
        assert abs(fam.table.second_moment()[0] - 0.06) <= 1e-9 * 0.06
        assert len(builds) <= 56

    def test_unreachable_target_raises_embed_error(self):
        # the flattest profile on the torus has per-axis moment 1/12
        with pytest.raises(KernelEmbedError, match="largest moment reached"):
            make_mollifier("truncated-gaussian", 0.2, d=1, second_moment_target=0.1,
                           table_points=256)

    def test_zero_moment_raises(self):
        # a bump narrower than a cell samples to the origin alone
        with pytest.raises(KernelError, match="degenerate moment"):
            make_mollifier("compact-bump", 1e-5, d=1, second_moment_target=2e-10)

    @pytest.mark.parametrize("preset, width", [
        ("default-1d", 0.1427955374669045),
        ("fig1-2d", 0.02236121144000389),
    ])
    def test_preset_omega_widths(self, preset, width):
        from torusdpa.harness import build_scenario_kernels, load_scenario

        assert build_scenario_kernels(load_scenario(preset)).omega.profile_width == width

    def test_natural_mode_records_moment(self):
        fam = make_mollifier("compact-bump", 0.25, d=1)
        assert fam.profile_width == 0.25
        assert fam.second_moment_target == pytest.approx(
            float(fam.table.second_moment()[0]), abs=1e-15
        )


class TestEvalGrad:
    def test_matches_analytic_gaussian(self):
        fam = make_mollifier("truncated-gaussian", 0.05, d=1, second_moment_target=2 * 0.05**2)
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
        got = periodic_spline(fam.table.values, pts, gradient=True)[:, 0]
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) / scale < 1e-4


class TestSpectralSet:
    """Every composed kernel is a multiplier on the mollifier spectra and R_hat."""

    def test_set_build_transform_count(self, count_transforms):
        # 2 mollifier spectra, 3 x 3 Hessian transforms (W, ot*ot, R) for
        # stable_dt, 1 for the U table, 3 for lambda: 15 transforms, each two
        # numpy calls in 2-d
        sched = schedule_from_epsilon(0.1, d=2, epsilon_tilde=0.22, epsilon_star=0.3,
                                      alpha=0.1)
        calls = count_transforms
        calls.clear()
        kset = build_kernel_set(sched, kind="truncated-gaussian", table_points=128,
                                omega_moment=2 * sched.epsilon**2)
        stable_dt(kset)
        kset.pair_kernel()
        lambda_convexity_constant(kset)
        assert len(calls) == 2 * 15

    def test_particle_mesh_cut_at_the_pair_potential_tail(self, kset_1d, kset_2d):
        # a 1-d box, as a 2-d one, is the smallest whose dropped modes
        # |k| > K carry at most TAIL_TOL_1D of U_hat's absolute sum (each
        # column weighted as in inner); the 2-d set's tail still reaches
        # its lattice's edge
        n = kset_1d.n
        K = kset_1d.particle_mesh[0].K
        assert K < (n - 1) // 2
        mass = np.abs(kset_1d.pair_spectrum()) * column_weights(n)
        (k,) = freq_lattice(n, 1)
        assert mass[k > K].sum() <= TAIL_TOL_1D * mass.sum() < mass[k >= K].sum()
        assert kset_2d.particle_mesh[0].K == (kset_2d.n - 1) // 2 == 127

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
            assert rep["ok"]
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
        grad = gradient(W.spectrum, W.n)[0]
        assert abs(grad[0]) <= 1e-13 * np.max(np.abs(grad))
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
        got = float(periodic_spline(kset.W.values, [[x0]])[0])
        assert got == pytest.approx(expected, rel=1e-6)

    def test_associativity(self, kset_1d):
        to = GridField(kset_1d.omega.table.values)
        tt = kset_1d.omega_tilde
        left = periodic_convolve(periodic_convolve(to, tt), tt)
        tt2 = KernelTable(periodic_convolve(GridField(tt.table.values), tt).values)
        right = periodic_convolve(to, tt2)
        assert np.max(np.abs(left.values - right.values)) <= 1e-10

    def test_squared_kernel_spectral_positivity(self, kset_1d):
        ot_hat = kset_1d.spectra[1]
        smooth2 = KernelTable.from_spectrum(ot_hat * ot_hat, kset_1d.n)
        spec = np.real(np.fft.fft(smooth2.values)) / kset_1d.n
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

    def test_ordering_checked_at_every_epsilon(self):
        # a hand-built schedule at epsilon >= 1 meets the same ordering check
        with pytest.raises(ValueError, match="epsilon_tilde"):
            ParameterSchedule(epsilon=1.5, epsilon_tilde=1.2, epsilon_star=2.0, alpha=0.1)


class TestLambdaConstant:
    def test_sign_and_alpha_monotonicity(self):
        # a narrower R_alpha has a more negative Hessian at the origin
        lams = []
        for alpha in (0.2, 0.1, 0.05):
            s = schedule_from_epsilon(
                0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3, alpha=alpha
            )
            lams.append(lambda_convexity_constant(build_kernel_set(s, kind="compact-bump")))
        assert all(l <= 0 for l in lams)
        assert abs(lams[0]) < abs(lams[1]) < abs(lams[2])

    def test_alpha_zero_rejected(self):
        s = schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3, alpha=0.0)
        kset = build_kernel_set(s, kind="compact-bump")
        with pytest.raises(ValueError, match="alpha=0"):
            lambda_convexity_constant(kset)

    def test_default_path_matches_fd_hessian(self):
        # spec example scales: 1-d bumps, omega at moment 2 eps^2 and omega_tilde
        # at its natural width, eps=0.1/et=0.4/alpha=0.2
        sched = schedule_from_epsilon(
            0.1, d=1, epsilon_tilde=0.4, epsilon_star=0.7, alpha=0.2
        )
        kset = build_kernel_set(sched, kind="compact-bump", omega_moment=2 * sched.epsilon**2)
        lam = lambda_convexity_constant(kset)
        U = kset.pair_kernel()
        h = U.h
        vals = U.values
        fd = (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / h**2
        fd_lam = min(0.0, float(fd.min()))
        assert lam <= 0.0
        assert lam == pytest.approx(fd_lam, rel=0.02)


def test_hessian_inf_norm_is_the_largest_eigenvalue_modulus(kset_1d, kset_2d):
    # 0.5 (|trace| + disc), bit for bit the max |lambda| over both fields
    rng = np.random.default_rng(5)
    specs = [(k.w_hat, k.spectra[1] * k.spectra[1], k.pair_spectrum())
             for k in (kset_1d, kset_2d)]
    specs = [s for group in specs for s in group]
    for d, n in ((1, 64), (2, 32)) * 10:
        shape = (n,) * (d - 1) + (n // 2 + 1,)
        specs.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for spec in specs:
        n = spec.shape[0] if spec.ndim == 2 else 2 * (spec.shape[0] - 1)
        want = max(float(np.max(np.abs(e))) for e in hessian_eigs(spec, n))
        assert hessian_inf_norm(spec, n) == want


def test_resample_preserves_moments(kset_1d):
    fam = kset_1d.at_resolution(512).omega
    assert fam.table.n == 512
    assert fam.table.mass() == pytest.approx(1.0, abs=1e-10)
    assert float(fam.table.second_moment()[0]) == pytest.approx(
        kset_1d.omega.second_moment_target, abs=1e-8
    )


def test_kernel_csv_export(tmp_path, kset_1d):
    path = tmp_path / "omega.csv"
    export_kernel_csv(kset_1d.omega, path)
    head = path.read_text().splitlines()
    assert head[0] == "x1,value,grad1"
    assert len(head) == kset_1d.n + 1
    # every float in %.17g, which reads back exactly
    values = kset_1d.omega.table.values
    assert head[2].split(",")[1] == format(values[1], ".17g")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], values)


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_csv_gradients_are_spectral(kset_1d, kset_2d, count_transforms, d):
    # the gradient columns are the spectral node gradients of the family's
    # cached spectrum: d inverse transforms in one stacked pass of d numpy
    # calls, and no forward transform
    fam = (kset_1d if d == 1 else kset_2d).omega_tilde
    fam.spectrum
    calls = count_transforms
    calls.clear()
    buf = io.StringIO()
    export_kernel_csv(fam, buf)
    assert len(calls) == d
    data = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
    for ax, grad in enumerate(gradient(fam.spectrum, fam.n)):
        assert np.array_equal(data[:, d + 1 + ax], grad.ravel())


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: make_mollifier("cosine", 0.1), KernelError, "unknown mollifier kind 'cosine'"),
    (lambda: make_mollifier("compact-bump", 0.6), KernelError, r"scale 0.6 outside \(0, 1/2\)"),
    (lambda: make_viscosity_kernel(0.0), KernelError, "alpha must be positive"),
    (lambda: ParameterSchedule(epsilon=0.0, epsilon_tilde=0.25, epsilon_star=0.3, alpha=0.08),
     ValueError, "epsilon must be positive"),
], ids=["unknown-kind", "scale-0.6", "viscosity-alpha-0", "schedule-epsilon-0"])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
