import numpy as np
import pytest
from scipy.integrate import quad

from torusdpa import fields
from torusdpa.fields import (
    B_eps,
    GridField,
    dissipation_D_eps,
    energy_E_m,
    entropy,
    free_energy,
    kde_density,
    periodic_convolve,
    velocity_field_nl,
)
from torusdpa.geometry import min_image
from torusdpa.kernels import KernelTable, build_kernel_set, make_mollifier, schedule_from_epsilon
from torusdpa.oracles import direct_convolve_table, direct_double_sum
from torusdpa.particles import ParticleState, compute_forces, init_quantile
from torusdpa.transport import DiscreteMeasure, w2_circle_exact


def sin_field(n=2048, amp=1.0, offset=0.0):
    x = np.arange(n) / n
    return GridField(offset + amp * np.sin(2 * np.pi * x))


class TestConvolve:
    def test_identity_kernel(self, rng):
        n = 512
        vals = np.zeros(n)
        vals[0] = n  # discrete delta with unit mass
        delta = KernelTable(vals)
        f = GridField(rng.random(n))
        out = periodic_convolve(f, delta)
        assert np.max(np.abs(out.values - f.values)) < 1e-10

    def test_constant_preserved(self, kset_1d):
        f = GridField.constant(3.0, kset_1d.n)
        out = periodic_convolve(f, kset_1d.omega_tilde)
        assert np.max(np.abs(out.values - 3.0)) < 1e-12

    def test_mass_preserved(self, kset_1d, rng):
        f = GridField(1.0 + 0.3 * rng.random(kset_1d.n))
        out = periodic_convolve(f, kset_1d.omega)
        assert out.mass() == pytest.approx(f.mass(), abs=1e-12)

    def test_sine_multiplier_vs_quadrature(self):
        fam = make_mollifier("truncated-gaussian", 0.05, d=1, table_points=2048)
        sig, cut = fam.profile_width, fam.table.support_radius
        Z = quad(lambda y: np.exp(-0.5 * y * y / sig**2), -cut, cut, epsabs=1e-14)[0]
        mult = (
            quad(
                lambda y: np.cos(2 * np.pi * y) * np.exp(-0.5 * y * y / sig**2),
                -cut,
                cut,
                epsabs=1e-14,
            )[0]
            / Z
        )
        f = sin_field(2048)
        out = periodic_convolve(f, fam)
        amp = 2.0 * np.abs(np.fft.fft(out.values)[1]) / 2048
        assert amp == pytest.approx(abs(mult), abs=1e-6)


class TestBeps:
    def test_constant_is_zero(self, kset_1d):
        f = GridField.constant(2.5, kset_1d.n)
        out = B_eps(f, kset_1d.omega, 0.1)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_linearity(self, kset_1d, rng):
        n = kset_1d.n
        f = GridField(rng.random(n))
        g = GridField(rng.random(n))
        a, b = 1.7, -0.4
        lhs = B_eps(GridField(a * f.values + b * g.values), kset_1d.omega, 0.1)
        rhs = a * B_eps(f, kset_1d.omega, 0.1).values + b * B_eps(g, kset_1d.omega, 0.1).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10

    def test_zero_epsilon_rejected(self, kset_1d):
        with pytest.raises(ValueError):
            B_eps(GridField.constant(1.0, kset_1d.n), kset_1d.omega, 0.0)

    def test_laplacian_consistency_order(self):
        # ||B_eps[sin] - (2 pi)^2 sin||_inf = O(eps^2) under the 2 delta_ij convention
        n = 2048
        f = sin_field(n)
        target = (2 * np.pi) ** 2 * np.sin(2 * np.pi * np.arange(n) / n)
        errs = []
        for eps in (0.04, 0.02, 0.01):
            om = make_mollifier("compact-bump", eps, d=1, table_points=n)
            out = B_eps(f, om, eps)
            errs.append(np.max(np.abs(out.values - target)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.5


class TestDissipation:
    def test_constant_zero(self, kset_1d):
        f = GridField.constant(1.0, kset_1d.n)
        assert dissipation_D_eps(f, kset_1d.omega, 0.1) == 0.0

    def test_quadratic_homogeneity(self, kset_1d, rng):
        f = GridField(rng.random(kset_1d.n))
        d1 = dissipation_D_eps(f, kset_1d.omega, 0.1)
        d2 = dissipation_D_eps(GridField(2.0 * f.values), kset_1d.omega, 0.1)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-12)

    def test_limit_value(self):
        # D_eps[sin] -> 2 int |f'|^2 = (2 pi)^2 within 2% at eps = 0.01
        n = 4096
        f = sin_field(n)
        om = make_mollifier("compact-bump", 0.01, d=1, table_points=n)
        d = dissipation_D_eps(f, om, 0.01)
        assert d == pytest.approx((2 * np.pi) ** 2, rel=0.02)

    def test_identity_with_B(self, kset_1d, rng):
        f = GridField(rng.random(kset_1d.n))
        d = dissipation_D_eps(f, kset_1d.omega, 0.1)
        b = B_eps(f, kset_1d.omega, 0.1)
        inner = float((b.values * f.values).sum() * f.h)
        assert d == pytest.approx(2.0 * inner, abs=1e-8 * max(1.0, abs(d)))

    def test_polarization(self, kset_1d, rng):
        n = kset_1d.n
        f = GridField(rng.random(n))
        g = GridField(rng.random(n))
        om = kset_1d.omega
        dsum = dissipation_D_eps(GridField(f.values + g.values), om, 0.1)
        df = dissipation_D_eps(f, om, 0.1)
        dg = dissipation_D_eps(g, om, 0.1)
        b = B_eps(f, om, 0.1)
        inner = float((b.values * g.values).sum() * f.h)
        assert dsum - df - dg == pytest.approx(4.0 * inner, abs=1e-8 * max(1.0, abs(dsum)))

    def test_against_loop_oracle(self, rng):
        n = 512
        om = make_mollifier("compact-bump", 0.05, d=1, table_points=n)
        f = GridField(1.0 + 0.5 * rng.random(n))
        d = dissipation_D_eps(f, om, 0.05)
        oracle = direct_double_sum(f.values, om.table.values, 0.05)
        assert d == pytest.approx(oracle, rel=1e-12)


class TestEnergies:
    def test_unit_values(self):
        f = GridField.constant(1.0, 256)
        assert energy_E_m(f, 2.0) == pytest.approx(1.0)
        assert energy_E_m(f, 3.0) == pytest.approx(0.5)

    def test_analytic_sin(self):
        f = sin_field(4096, amp=0.5, offset=1.0)
        assert energy_E_m(f, 2.0) == pytest.approx(1.125, abs=1e-8)

    def test_negative_rejected(self):
        f = GridField(np.array([1.0, -0.5, 1.0, 1.0]))
        with pytest.raises(ValueError):
            energy_E_m(f, 2.0)

    def test_entropy(self):
        assert entropy(GridField.constant(1.0, 128)) == pytest.approx(-1.0)
        vals = np.zeros(128)
        vals[:64] = 2.0  # half-support density; 0 log 0 treated as 0
        assert entropy(GridField(vals)) == pytest.approx(np.log(2.0) - 1.0)


class TestFreeEnergy:
    def test_uniform_density(self, kset_1d, sched_1d):
        f = GridField.constant(1.0, kset_1d.n)
        rep = free_energy(f, sched_1d, kset_1d)
        expected = -1.0 / (sched_1d.m - 1.0) + sched_1d.epsilon_star / 2.0
        assert rep.F_eps_alpha == pytest.approx(expected, abs=1e-8)
        assert rep.D_eps == pytest.approx(0.0, abs=1e-10)
        assert rep.entropy == pytest.approx(-1.0)
        assert rep.identity_error() < 1e-10

    def test_identity_invariant(self, kset_1d, sched_1d, rng):
        vals = 1.0 + 0.4 * np.sin(2 * np.pi * np.arange(kset_1d.n) / kset_1d.n)
        f = GridField(vals / (vals.sum() / kset_1d.n))
        rep = free_energy(f, sched_1d, kset_1d)
        assert rep.identity_error() < 1e-10

    def test_against_independent_quadrature(self):
        # no shared convolution code: roll-based convolution + loop double sum
        n = 1024
        sched = schedule_from_epsilon(
            0.02, d=1, epsilon_tilde=0.2, epsilon_star=0.3, alpha=0.1
        )
        kset = build_kernel_set(sched, kind="compact-bump", table_points=n,
                                normalize_tilde=False)
        x = np.arange(n) / n
        f = GridField(1.0 + 0.5 * np.sin(2 * np.pi * x))
        rep = free_energy(f, sched, kset, with_velocity=False)
        smoothed = direct_convolve_table(f.values, kset.omega_tilde.table.values)
        d_term = 0.25 * direct_double_sum(smoothed, kset.omega.table.values, sched.epsilon)
        e_term = float((smoothed**2).sum() / n)
        half = direct_convolve_table(f.values, kset.viscosity.half_table.values)
        visc = 0.5 * sched.epsilon_star * float((half**2).sum() / n)
        expected = d_term - e_term + visc
        assert rep.F_eps_alpha == pytest.approx(expected, rel=1e-4)


class TestKde:
    def test_single_particle_on_node(self, kset_1d, sched_1d):
        n = kset_1d.n
        st = ParticleState(np.array([[0.5]]), schedule=sched_1d)
        fld = kde_density(st, kset_1d.omega_tilde, n)
        x = np.arange(n) / n
        expected = kset_1d.omega_tilde.table.value_at((x - 0.5)[:, None])
        assert np.max(np.abs(fld.values - expected)) < 1e-12
        assert fld.mass() == pytest.approx(1.0, abs=1e-8)

    def test_translation_equivariance(self, kset_1d, sched_1d, rng):
        n = 512
        pos = rng.random((20, 1))
        a = kde_density(ParticleState(pos, schedule=sched_1d), kset_1d.omega_tilde, n)
        b = kde_density(
            ParticleState(pos + 0.25, schedule=sched_1d), kset_1d.omega_tilde, n
        )
        shift = n // 4
        assert np.max(np.abs(np.roll(a.values, shift) - b.values)) < 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    def test_tiles_match_per_particle_sum(self, kset_1d, kset_2d, rng, monkeypatch, d):
        # tiles of 7 grid nodes, the last one ragged, against a particle loop
        kset = kset_1d if d == 1 else kset_2d
        N, n = 5, 16
        monkeypatch.setattr(fields, "TILE_POINTS", 7 * N)
        pos = rng.random((N, d))
        fld = kde_density(pos, kset.omega_tilde, n)
        x = np.arange(n) / n
        nodes = np.stack(np.meshgrid(*([x] * d), indexing="ij"), axis=-1).reshape(-1, d)
        table = kset.omega_tilde.table
        expected = sum(table.value_at(min_image(nodes, p)) for p in pos) / N
        assert np.max(np.abs(fld.values.ravel() - expected)) <= 1e-13 * np.max(expected)

    def test_uniform_flatness(self, kset_1d, sched_1d):
        N = 1000
        st = init_quantile(GridField.constant(1.0, 4096), N, sched_1d)
        fld = kde_density(st, kset_1d.omega_tilde, 1024)
        assert np.max(np.abs(fld.values - 1.0)) <= 3.0 / np.sqrt(N) + 1e-3


class TestVelocityField:
    def test_constant_density(self, kset_1d, sched_1d):
        f = GridField.constant(1.0, kset_1d.n)
        v = velocity_field_nl(f, sched_1d, kset_1d)
        assert np.max(np.abs(v)) < 1e-9

    def test_mean_zero(self, kset_1d, sched_1d):
        n = kset_1d.n
        x = np.arange(n) / n
        vals = 1.0 + 0.5 * np.sin(2 * np.pi * x)
        f = GridField(vals / (vals.sum() / n))
        v = velocity_field_nl(f, sched_1d, kset_1d)
        assert abs(v[0].mean()) < 1e-12

    def test_particle_consistency_on_nodes(self, kset_1d, sched_1d):
        # two particles sitting exactly on grid nodes: the grid velocity sampled
        # at a particle equals the pairwise force, term by term
        n = kset_1d.n
        i1, i2 = n // 4, n // 4 + int(0.1 * n)
        pos = np.array([[i1 / n], [i2 / n]])
        st = ParticleState(pos, schedule=sched_1d)
        ff = compute_forces(st, kset_1d)
        vals = np.zeros(n)
        vals[i1] += n / 2.0
        vals[i2] += n / 2.0
        rho = GridField(vals)
        v = velocity_field_nl(rho, sched_1d, kset_1d)
        assert v[0, i1] == pytest.approx(ff.velocities[0, 0], rel=1e-6, abs=1e-9)
        assert v[0, i2] == pytest.approx(ff.velocities[1, 0], rel=1e-6, abs=1e-9)


def test_gridfield_io_roundtrip(tmp_path, rng):
    from torusdpa.fields import load_gridfield, save_gridfield

    f = GridField(rng.random((64, 64)))
    save_gridfield(f, tmp_path / "f.gf")
    g = load_gridfield(tmp_path / "f.gf")
    assert np.array_equal(f.values, g.values)
    with pytest.raises(ValueError):
        (tmp_path / "bad.gf").write_bytes(b"nope")
        load_gridfield(tmp_path / "bad.gf")


def test_quantile_w2_halving(sched_1d):
    # W2(rho0^N, rho0) halves when N doubles (order 1/N quantile placement)
    n = 4096
    x = np.arange(n) / n
    vals = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    rho = GridField(vals / (vals.sum() / n))
    from torusdpa.transport import grid_to_measure

    target = grid_to_measure(rho, max_atoms=1024)
    dists = []
    for N in (32, 64):
        st = init_quantile(rho, N, sched_1d)
        mu = DiscreteMeasure(st.positions)
        dists.append(w2_circle_exact(mu, target)[0])
    assert dists[1] <= dists[0]
    assert dists[1] == pytest.approx(0.5 * dists[0], rel=0.2)


def test_alpha_zero_convention():
    # alpha = 0 means rho * R_alpha = rho in the velocity and the free energy
    sched = schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3,
                                  alpha=0.0)
    kset = build_kernel_set(sched, kind="truncated-gaussian", table_points=1024)
    assert kset.viscosity is None
    n = 1024
    x = np.arange(n) / n
    vals = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    rho = GridField(vals / (vals.sum() / n))
    v = velocity_field_nl(rho, sched, kset)
    assert np.all(np.isfinite(v)) and abs(v[0].mean()) < 1e-12
    rep = free_energy(rho, sched, kset, with_velocity=False)
    # the viscosity addend is (eps_star/2) E_2[rho] under the convention
    assert rep.visc_term == pytest.approx(
        0.5 * sched.epsilon_star * energy_E_m(rho, 2.0), rel=1e-12
    )
