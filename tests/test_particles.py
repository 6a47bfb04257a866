import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from torusdpa.fields import GridField
from torusdpa.kernels import (
    KernelSet,
    KernelTable,
    build_kernel_set,
    hessian_inf_norm,
    schedule_from_epsilon,
)
from torusdpa.oracles import (
    bump_profile,
    dense_fourier_energy,
    dense_fourier_sum,
    fd_gradient,
    quad_convolve,
)
from torusdpa.particles import (
    METHODS,
    ParticleState,
    _velocities,
    compute_forces,
    discrete_energy,
    fixed_steps,
    init_quantile,
    momentum,
    stable_dt,
    step,
)
from torusdpa.spectral import gradient

# two particles of kset_1d: their velocities (about 21 in size) scale the
# roundoff bounds on the self term and on pairwise cancellation
TWO = np.array([[0.3], [0.41]])


@pytest.fixture(scope="module")
def kset_2d_1024():
    sched = schedule_from_epsilon(0.12, d=2, epsilon_tilde=0.3, epsilon_star=0.45, alpha=0.1)
    return build_kernel_set(sched, kind="truncated-gaussian", table_points=1024,
                            omega_moment=2 * sched.epsilon**2)


class TestInitQuantile:
    def test_uniform_quantiles(self):
        st = init_quantile(GridField.constant(1.0, 4096), 4)
        assert np.allclose(st.positions.ravel(), [0.125, 0.375, 0.625, 0.875])

    def test_spike_concentration(self):
        vals = np.zeros(256)
        vals[37] = 256.0
        st = init_quantile(GridField(vals), 16)
        lo, hi = 37 / 256, 38 / 256
        assert np.all(st.positions >= lo) and np.all(st.positions <= hi)

    def test_errors(self):
        with pytest.raises(ValueError):
            init_quantile(GridField.constant(1.0, 64), 0)
        with pytest.raises(ValueError):
            init_quantile(GridField(np.array([1.0, -0.5, 1.0, 0.5])), 4)

    def test_product_quantiles_2d_uniform(self):
        st = init_quantile(GridField.constant(1.0, 128, 2), 12)
        # 12 = 3 x 4 grid of strip medians
        xs = np.unique(np.round(st.positions[:, 0], 12))
        ys = np.unique(np.round(st.positions[:, 1], 12))
        assert len(xs) == 3 and len(ys) == 4
        assert np.allclose(xs, [1 / 6, 1 / 2, 5 / 6])
        assert np.allclose(ys, [0.125, 0.375, 0.625, 0.875])


class TestForces:
    def test_single_particle_zero(self, kset_1d):
        # the self term's gradient vanishes to roundoff on the mesh
        scale = np.max(np.abs(compute_forces(ParticleState(TWO), kset_1d).velocities))
        st = ParticleState(np.array([[0.37]]))
        ff = compute_forces(st, kset_1d)
        assert np.max(np.abs(ff.velocities)) <= 1e-14 * scale

    def test_two_particle_antisymmetry(self, kset_1d):
        ff = compute_forces(ParticleState(TWO), kset_1d)
        scale = np.max(np.abs(ff.velocities))
        for term in (ff.term_interaction, ff.term_aggregation, ff.term_viscosity):
            assert abs(term[0, 0] + term[1, 0]) <= 1e-14 * scale

    def test_decomposition_exact(self, kset_1d, rng):
        st = ParticleState(rng.random((17, 1)))
        ff = compute_forces(st, kset_1d)
        terms = ff.term_interaction + ff.term_aggregation + ff.term_viscosity
        assert np.array_equal(ff.velocities, terms)

    def test_permutation_equivariance(self, kset_1d, rng):
        pos = rng.random((9, 1))
        perm = rng.permutation(9)
        f1 = compute_forces(ParticleState(pos), kset_1d).velocities
        f2 = compute_forces(ParticleState(pos[perm]), kset_1d).velocities
        assert np.allclose(f1[perm], f2, atol=1e-14)

    def test_momentum_fsum_zero(self, kset_1d, rng):
        st = ParticleState(rng.random((200, 1)))
        for _ in range(3):
            ff = compute_forces(st, kset_1d)
            assert np.max(np.abs(momentum(ff))) <= 1e-12
            st = step(st, kset_1d, 1e-5, method="euler")

    def test_interaction_term_vs_nested_quadrature(self, kset_1d_bump):
        # two particles at separation 0.1; term1 on particle 1 = -grad W(-0.1)/2
        kset = kset_1d_bump
        sched = kset.schedule
        eps = sched.epsilon
        st = ParticleState(np.array([[0.45], [0.55]]))
        ff = compute_forces(st, kset)
        om = bump_profile(kset.omega.profile_width)
        ot = bump_profile(kset.omega_tilde.profile_width)
        zo = quad(om, -0.5, 0.5, epsabs=1e-13)[0]
        zt = quad(ot, -0.5, 0.5, epsabs=1e-13)[0]

        def A(x):
            return quad_convolve(lambda y: ot(y) / zt, lambda y: ot(y) / zt, x, tol=1e-11)

        def W(x):
            wa = quad(lambda y: om(y) / zo * A(x - y), -0.5, 0.5, epsabs=1e-10,
                      limit=400)[0]
            return (A(x) - wa) / eps**2

        grad_w = fd_gradient(lambda p: W(p[0]), np.array([-0.1]), h=1e-4)[0]
        expected = -0.5 * grad_w
        assert ff.term_interaction[0, 0] == pytest.approx(expected, rel=1e-4)

    def test_general_m_runs_and_is_equivariant(self, rng):
        sched = schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3,
                                      alpha=0.1, m=3.0)
        kset = build_kernel_set(sched, kind="truncated-gaussian",
                                omega_moment=2 * sched.epsilon**2)
        pos = rng.random((8, 1))
        st = ParticleState(pos)
        ff = compute_forces(st, kset)
        assert np.all(np.isfinite(ff.velocities))
        perm = rng.permutation(8)
        ff2 = compute_forces(ParticleState(pos[perm]), kset)
        assert np.allclose(ff.velocities[perm], ff2.velocities, atol=1e-13)

    def test_alpha_zero_needs_appendix_mode(self, rng):
        # a set built at alpha = 0 carries no R_hat: every particle entry
        # point that needs the viscosity term raises the same error, and
        # none does in appendix-A mode
        sched = schedule_from_epsilon(0.1, d=1, epsilon_tilde=0.25, epsilon_star=0.3,
                                      alpha=0.0)
        ksets = {a: build_kernel_set(sched, kind="truncated-gaussian",
                                     omega_moment=2 * sched.epsilon**2, appendix_a=a)
                 for a in (False, True)}
        assert ksets[False].viscosity is None and ksets[True].viscosity is None
        st = ParticleState(rng.random((4, 1)))
        errors = set()
        for call in (lambda a: compute_forces(st, ksets[a]),
                     lambda a: step(st, ksets[a], 1e-6),
                     lambda a: stable_dt(ksets[a]),
                     lambda a: discrete_energy(st, ksets[a])):
            with pytest.raises(ValueError) as caught:
                call(False)
            errors.add((type(caught.value), str(caught.value)))
            call(True)
        assert len(errors) == 1 and "appendix_a=True" in errors.pop()[1]
        ff = compute_forces(st, ksets[True])
        assert np.all(ff.term_viscosity == 0.0)


class TestEnergy:
    def test_single_particle_value(self, kset_1d):
        st = ParticleState(np.array([[0.2]]))
        U = kset_1d.pair_kernel()
        expected = 0.5 * float(U.values[0])
        assert discrete_energy(st, kset_1d) == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self, kset_1d, rng):
        pos = rng.random((6, 1))
        e1 = discrete_energy(ParticleState(pos), kset_1d)
        e2 = discrete_energy(ParticleState(pos + 0.3), kset_1d)
        assert e1 == pytest.approx(e2, rel=1e-10)

    def test_requires_m2(self, kset_1d, rng):
        kset = dataclasses.replace(kset_1d, schedule=dataclasses.replace(kset_1d.schedule, m=3.0))
        st = ParticleState(rng.random((4, 1)))
        with pytest.raises(ValueError):
            discrete_energy(st, kset)

    def test_three_body_vs_quadrature(self, kset_1d_bump):
        # brute-force 9-term sum with kernels from nested quadrature (appendix-A
        # pair: U = W - 2 ot*ot, both sides built without the table pipeline)
        kset = dataclasses.replace(kset_1d_bump, appendix_a=True)
        sched = kset.schedule
        pos = np.array([[0.2], [0.33], [0.41]])
        st = ParticleState(pos)
        got = discrete_energy(st, kset)
        om = bump_profile(kset.omega.profile_width)
        ot = bump_profile(kset.omega_tilde.profile_width)
        zo = quad(om, -0.5, 0.5, epsabs=1e-13)[0]
        zt = quad(ot, -0.5, 0.5, epsabs=1e-13)[0]
        w_supp = kset.omega.profile_width * 1.2

        def A(x):
            return quad_convolve(lambda y: ot(y) / zt, lambda y: ot(y) / zt, x, tol=1e-11)

        def U(x):
            wa = quad(lambda y: om(y) / zo * A(x - y), -w_supp, w_supp, epsabs=1e-11,
                      limit=400)[0]
            return (A(x) - wa) / sched.epsilon**2 - 2.0 * A(x)

        total = 0.0
        for i in range(3):
            for j in range(3):
                r = pos[i, 0] - pos[j, 0]
                r -= math.ceil(r - 0.5)
                total += U(r)
        expected = total / (2.0 * 9.0)
        assert got == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("seed", [5, 7, 99])
    def test_force_is_energy_gradient_2d(self, kset_2d_1024, seed):
        # criterion 4's 2-d setup: forces and energy read one interpolant, so
        # they agree to the finite-difference error, not the interpolation error
        rng = np.random.default_rng(seed)
        for N in (5, 20):
            pos = rng.random((N, 2))
            force = compute_forces(ParticleState(pos), kset_2d_1024).velocities

            def energy_at(p):
                return discrete_energy(ParticleState(p.reshape(N, 2)), kset_2d_1024)

            grad = fd_gradient(energy_at, pos.ravel(), h=1e-6).reshape(N, 2)
            assert np.max(np.abs(force + N * grad)) / np.max(np.abs(force)) < 1e-8

    def test_gradient_structure(self, kset_1d, rng):
        # forces = -N * Richardson central difference of the discrete energy
        for N in (2, 5):
            pos = rng.random((N, 1))
            st = ParticleState(pos)
            force = compute_forces(st, kset_1d).velocities

            def energy_at(p):
                return discrete_energy(ParticleState(p.reshape(N, 1)), kset_1d)

            grad = fd_gradient(energy_at, pos.ravel(), h=1e-6).reshape(N, 1)
            expected = -N * grad
            scale = np.max(np.abs(force))
            assert np.max(np.abs(force - expected)) / scale < 1e-5


class TestStep:
    def test_zero_force_fixed_point(self, kset_1d):
        st = ParticleState(np.array([[0.45]]))
        out = step(st, kset_1d, 1e-4)
        assert np.array_equal(out.positions, st.positions)
        assert out.time == pytest.approx(1e-4)

    def test_euler_heun_richardson(self, kset_1d, rng):
        # euler and heun differ by O(dt^2) from the same state
        pos = rng.random((8, 1))
        gaps = []
        for dt in (2e-5, 1e-5):
            a = step(ParticleState(pos), kset_1d, dt, "euler")
            b = step(ParticleState(pos), kset_1d, dt, "heun")
            gaps.append(np.max(np.abs(a.positions - b.positions)))
        order = np.log2(gaps[0] / gaps[1])
        assert order == pytest.approx(2.0, abs=0.3)

    def test_rk4_reversibility(self, kset_1d, rng):
        pos = rng.random((8, 1))
        st = ParticleState(pos)
        fwd = step(st, kset_1d, 1e-4, "rk4")
        back = ParticleState(fwd.positions, time=0.0)
        # integrate the reversed flow by negating velocities via a negated dt trick:
        # rk4 on -v equals rk4 backward to integrator order
        def rhs(p):
            return -_velocities(ParticleState(p), kset_1d)

        X = back.positions
        dt = 1e-4
        k1 = rhs(X)
        k2 = rhs((X + 0.5 * dt * k1) % 1.0)
        k3 = rhs((X + 0.5 * dt * k2) % 1.0)
        k4 = rhs((X + dt * k3) % 1.0)
        Xb = (X + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)) % 1.0
        assert np.max(np.abs(Xb - pos)) < 1e-10

    def test_steps_past_stable_dt_without_warning(self, kset_1d, rng):
        # the run plan compares dt with stable_dt once (harness._particle_steps)
        st = ParticleState(rng.random((4, 1)))
        big = 10.0 * stable_dt(kset_1d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in METHODS:
                out = step(st, kset_1d, big, method)
                assert out.time == big and np.all(np.isfinite(out.positions))

    def test_unknown_method(self, kset_1d):
        st = ParticleState(np.array([[0.5]]))
        with pytest.raises(ValueError):
            step(st, kset_1d, 1e-5, method="leapfrog")


class TestStableDt:
    def test_smoother_kernels_larger_dt(self):
        dts = []
        for et in (0.2, 0.3):
            sched = schedule_from_epsilon(0.1, d=1, epsilon_tilde=et,
                                          epsilon_star=0.4, alpha=0.1)
            kset = build_kernel_set(sched, kind="compact-bump")
            dts.append(stable_dt(kset))
        assert dts[1] > dts[0]

    def test_amplitude_scaling_halves_dt(self, kset_1d):
        # ot_hat times sqrt(2) and R_hat times 2 double W, ot*ot and R_alpha
        base = stable_dt(kset_1d)
        ot_hat = kset_1d.omega_tilde.spectrum
        visc = kset_1d.viscosity
        doubled = KernelSet(
            schedule=kset_1d.schedule,
            omega=kset_1d.omega,
            omega_tilde=dataclasses.replace(
                kset_1d.omega_tilde,
                table=KernelTable.from_spectrum(math.sqrt(2.0) * ot_hat, kset_1d.n)),
            viscosity=dataclasses.replace(visc, spectrum=2.0 * visc.spectrum),
        )
        assert stable_dt(doubled) == pytest.approx(0.5 * base, rel=1e-12)

    @pytest.mark.parametrize("appendix_a", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_pair_potential_hessian_bound(self, kset_1d, kset_2d, d, appendix_a):
        # at m = 2 the particles follow -grad U: the step is 0.5 / sup|Hess U|,
        # never shorter than 0.5 over the sum of the addends' Hessian bounds
        kset = kset_1d if d == 1 else kset_2d
        if appendix_a:
            kset = dataclasses.replace(kset, viscosity=None, appendix_a=True)
        n, ot_hat = kset.n, kset.spectra[1]
        assert stable_dt(kset) == 0.5 / hessian_inf_norm(kset.pair_spectrum(), n)
        addends = hessian_inf_norm(kset.w_hat, n) + 2.0 * hessian_inf_norm(ot_hat * ot_hat, n)
        if not appendix_a:
            addends += kset.schedule.epsilon_star * hessian_inf_norm(kset.viscosity_hat, n)
        assert stable_dt(kset) >= 0.5 / addends

    def test_lipschitz_vs_fd_hessian(self, kset_1d):
        # spectral Hessian sup matches dense second differencing within 5%
        W = kset_1d.W
        h = W.h
        fd = (np.roll(W.values, -1) - 2.0 * W.values + np.roll(W.values, 1)) / h**2
        hess = hessian_inf_norm(kset_1d.w_hat, kset_1d.n)
        assert hess == pytest.approx(np.max(np.abs(fd)), rel=0.05)

    @pytest.mark.parametrize("d", [1, 2])
    def test_general_m_gradient_bound(self, kset_1d, kset_2d, d):
        # at m != 2 the bound takes max |grad ot| from ot's spectrum; it is
        # within 1 % of central differences of the table
        kset = kset_1d if d == 1 else kset_2d
        n, m = kset.n, 3.0
        values = kset.omega_tilde.table.values
        fd = 0.5 * n * max(np.max(np.abs(np.roll(values, -1, ax) - np.roll(values, 1, ax)))
                           for ax in range(d))
        grad_max = max(np.max(np.abs(g)) for g in gradient(kset.spectra[1], n))
        assert grad_max == pytest.approx(fd, rel=0.01)
        kset = dataclasses.replace(kset, schedule=dataclasses.replace(kset.schedule, m=m))
        rho_max = values.max()
        L = (hessian_inf_norm(kset.w_hat, n)
             + m / (m - 1.0) * (hessian_inf_norm(kset.spectra[1], n) * rho_max ** (m - 1.0)
                                + (m - 1.0) * rho_max ** (m - 2.0) * grad_max**2)
             + kset.schedule.epsilon_star * hessian_inf_norm(kset.viscosity.spectrum, n))
        assert stable_dt(kset) == pytest.approx(0.5 / L, rel=1e-12)


def test_fixed_steps_edges():
    # a positive T takes at least one step, even where T / dt_max underflows
    # to 0, and a step that underflowed to 0 is refused, not divided by
    assert fixed_steps(1.0, 0.1) == (10, 0.1)
    assert fixed_steps(1e-300, 1e300) == (1, 1e-300)
    assert fixed_steps(1e-3, math.inf) == (1, 1e-3)
    assert fixed_steps(0.0, 0.1) == (0, 0.1)
    with pytest.raises(ValueError, match="takes inf steps, more than the cap"):
        fixed_steps(1.0, 0.0, "integrator.dt")


def test_energy_dissipation_rk4(kset_1d, rng):
    st = ParticleState(rng.random((32, 1)))
    dt = stable_dt(kset_1d) / 10.0
    prev = discrete_energy(st, kset_1d)
    for _ in range(20):
        st = step(st, kset_1d, dt, "rk4")
        cur = discrete_energy(st, kset_1d)
        assert cur <= prev + 10.0 * dt**2
        prev = cur


@pytest.mark.parametrize("mode", ["gradient", "value", "weighted"])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 17, 400])
@pytest.mark.parametrize("d", [1, 2])
def test_tiled_pair_sums_match_full_oracle(kset_1d, kset_2d, rng, d, N, mode):
    # (named for the tiled pair sums the mesh replaced) the particle mesh
    # against dense Fourier sums over the table's lattice: gradient is
    # the m = 2 velocity, value the energy, weighted the general-m
    # aggregation term, a gradient sum weighted by the density's power
    kset = kset_1d if d == 1 else kset_2d
    n = kset.n
    X = rng.random((N, d))
    if mode == "value":
        got = discrete_energy(ParticleState(X), kset)
        U_hat = kset.pair_spectrum()
        ref = dense_fourier_energy(X, U_hat, n)
        # U changes sign, so the energy can cancel to a small fraction of
        # the modes' contributions: the bound is relative to the energy of |U_hat|
        assert abs(got - ref) <= 1e-12 * dense_fourier_energy(X, np.abs(U_hat), n)
        return
    if mode == "gradient":
        st = ParticleState(X)
        gots = [_velocities(st, kset), compute_forces(st, kset).velocities]

        def oracle(P):
            return -dense_fourier_sum(P, kset.pair_spectrum(), n, np.full(len(P), 1.0 / len(P)))
    else:
        m = 3.0
        st = ParticleState(X)
        kset_m = dataclasses.replace(kset, schedule=dataclasses.replace(kset.schedule, m=m))
        gots = [compute_forces(st, kset_m).term_aggregation]
        ot_hat = kset.spectra[1]

        def oracle(P):
            dens = dense_fourier_sum(P, ot_hat, n, np.full(len(P), 1.0 / len(P)), gradient=False)
            weights = dens ** (m - 1.0) / len(P)
            return (m / (m - 1.0)) * dense_fourier_sum(P, ot_hat, n, weights)
    ref = oracle(X)
    # a lone particle's sum is its self term, 0 in the dense sum: scale the
    # bound by a pair's instead
    scale = np.max(np.abs(ref if N > 1 else oracle(np.vstack([X, X + 0.1]))))
    for got in gots:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-10 * scale


def test_momentum_2d_several_tiles(kset_2d, rng):
    N = 400
    st = ParticleState(rng.random((N, 2)))
    ff = compute_forces(st, kset_2d)
    assert np.max(np.abs(momentum(ff))) <= 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_transform_counts(count_transforms, kset_1d, kset_2d, rng, d):
    # one spread and forward transform per sum, then one inverse transform
    # per gathered component (the set's mesh is built before counting); a
    # mesh transform runs on the box's columns only, d numpy calls each
    kset = kset_1d if d == 1 else kset_2d
    kset_a = dataclasses.replace(kset, appendix_a=True)
    st = ParticleState(rng.random((10, d)))
    for k in (kset, kset_a):
        compute_forces(st, k)
    calls = count_transforms
    calls.clear()
    _velocities(st, kset)
    assert len(calls) == d * (1 + d)
    discrete_energy(st, kset)
    assert len(calls) == d * (1 + d + 1)
    del calls[:]
    compute_forces(st, kset)
    assert len(calls) == d * (1 + 3 * d)
    del calls[:]
    compute_forces(st, kset_a)
    assert len(calls) == d * (1 + 2 * d)


@pytest.mark.parametrize("d", [1, 2])
def test_batched_step_makes_a_lone_steps_transforms(count_transforms, kset_1d, kset_2d, rng, d):
    # the mesh pass serves the whole batch: one stacked spread, forward and
    # inverse pass per sum, 1 + d transforms per velocity at m = 2
    kset = kset_1d if d == 1 else kset_2d
    X = rng.random((3, 10, d))
    dt = 0.5 * stable_dt(kset)
    step(ParticleState(X[0]), kset, dt, "heun")  # builds the set's mesh before counting
    calls = count_transforms
    for pos in (X[0], X):
        calls.clear()
        _velocities(ParticleState(pos), kset)
        assert len(calls) == d * (1 + d)
        calls.clear()
        step(ParticleState(pos), kset, dt, "heun")
        assert len(calls) == 2 * d * (1 + d)


@pytest.mark.parametrize("appendix_a", [False, True])
@pytest.mark.parametrize("m", [2.0, 3.0])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("d", [1, 2])
def test_batch_steps_each_system_as_alone(kset_1d, kset_2d, rng, d, method, m, appendix_a):
    # B systems of N particles, weights 1/N each, step bit for bit as they
    # do alone; m = 3 takes the density-weighted aggregation spread
    base = kset_1d if d == 1 else kset_2d
    kset = dataclasses.replace(base, schedule=dataclasses.replace(base.schedule, m=m),
                               appendix_a=appendix_a)
    X = rng.random((3, 9, d))
    batch = ParticleState(X, time=0.25)
    assert (batch.N, batch.d, batch.weight) == (9, d, 1.0 / 9)
    dt = 0.5 * stable_dt(kset)
    got = step(batch, kset, dt, method)
    assert got.positions.shape == X.shape and got.time == 0.25 + dt
    for b in range(3):
        alone = step(ParticleState(X[b]), kset, dt, method)
        assert np.array_equal(got.positions[b], alone.positions)


def test_discrete_energy_takes_one_system(kset_1d, rng):
    with pytest.raises(ValueError, match="one system"):
        discrete_energy(ParticleState(rng.random((2, 8, 1))), kset_1d)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2, 1), (5, 3), (2, 5, 0), ()])
def test_state_refuses_other_shapes(shape):
    # a flat array is not one particle in 3 dimensions, and a rank-4 array
    # not a batch of N = 2
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        ParticleState(np.full(shape, 0.5))


@pytest.mark.parametrize("d", [1, 2])
def test_general_m_velocity_sums_the_addends_in_one_gradient(count_transforms, kset_1d,
                                                              kset_2d, rng, d):
    # the three addends' coefficients summed before one gradient, at m = 2
    # as at m = 3: 1 + d and 3 + d transforms, not compute_forces' 1 + 3d
    # and 3 + 3d (one gradient fewer in appendix-A mode), each d numpy calls
    base = kset_1d if d == 1 else kset_2d
    st = ParticleState(rng.random((40, d)))
    calls = count_transforms
    for m, transforms in ((2.0, 1 + d), (3.0, 3 + d)):
        kset = dataclasses.replace(base, schedule=dataclasses.replace(base.schedule, m=m))
        for k in (kset, dataclasses.replace(kset, appendix_a=True)):
            v = compute_forces(st, k).velocities
            calls.clear()
            got = _velocities(st, k)
            assert len(calls) == d * transforms
            assert np.max(np.abs(got - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("d", [1, 2])
def test_m2_addend_multipliers_sum_to_minus_the_pair_potential(kset_1d, kset_2d, d):
    # the mesh's scaled addend multipliers at m = 2 are -W_hat, 2 ot_hat^2
    # and -eps_star R_hat, whose sum is -U_hat, cropped alike
    kset = kset_1d if d == 1 else kset_2d
    for k in (kset, dataclasses.replace(kset, appendix_a=True)):
        _, mult = k.particle_mesh
        total = mult["interaction"] + mult["aggregation"] + mult.get("viscosity", 0.0)
        assert np.max(np.abs(total + mult["U"])) <= 1e-15 * np.max(np.abs(mult["U"]))


def test_copy_for_another_eps_star_reads_its_own_schedule(kset_1d, rng):
    # dataclasses.replace starts empty caches: the forces, the integrated
    # velocity and the step bound all use the copy's eps_star, not the one
    # its source's mesh and bound were built with
    st = ParticleState(rng.random((16, 1)))
    stable_dt(kset_1d)
    _velocities(st, kset_1d)
    star = dataclasses.replace(kset_1d.schedule, epsilon_star=0.6)
    k2 = dataclasses.replace(kset_1d, schedule=star)
    v = compute_forces(st, k2).velocities
    assert np.max(np.abs(v - _velocities(st, k2))) <= 1e-12 * np.max(np.abs(v))
    fresh = build_kernel_set(star, kind="truncated-gaussian", omega_moment=2 * star.epsilon**2)
    assert stable_dt(k2) == stable_dt(fresh)
    assert stable_dt(k2) < stable_dt(kset_1d)


def test_appendix_a_copy_is_the_built_appendix_a_set(kset_1d, sched_1d, rng):
    # replace(kset, appendix_a=True) starts empty caches: with its source's
    # mesh and bound built first, the copy's sums and bound are those of a set
    # built in appendix-A mode, bit for bit
    st = ParticleState(rng.random((16, 1)))
    stable_dt(kset_1d)
    _velocities(st, kset_1d)
    copy = dataclasses.replace(kset_1d, appendix_a=True)
    built = build_kernel_set(sched_1d, kind="truncated-gaussian",
                             omega_moment=2 * sched_1d.epsilon**2, appendix_a=True)
    assert built.viscosity is None and copy.viscosity is not None
    assert np.array_equal(_velocities(st, copy), _velocities(st, built))
    got, want = compute_forces(st, copy), compute_forces(st, built)
    for name in ("velocities", "term_interaction", "term_aggregation", "term_viscosity"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert stable_dt(copy) == stable_dt(built) > stable_dt(kset_1d)
    assert discrete_energy(st, copy) == discrete_energy(st, built)


def test_compute_forces_keyword_must_match_the_set(kset_1d, rng):
    # the set fixes appendix-A mode; the keyword selects nothing and a
    # mismatch raises
    st = ParticleState(rng.random((4, 1)))
    copy = dataclasses.replace(kset_1d, appendix_a=True)
    assert np.array_equal(compute_forces(st, kset_1d, appendix_a=False).velocities,
                          compute_forces(st, kset_1d).velocities)
    assert np.array_equal(compute_forces(st, copy, appendix_a=True).velocities,
                          compute_forces(st, copy).velocities)
    for kset, flag in ((kset_1d, True), (copy, False)):
        with pytest.raises(ValueError, match="appendix_a"):
            compute_forces(st, kset, appendix_a=flag)


@pytest.mark.parametrize("call, fragment", [
    (lambda kset: init_quantile(GridField(np.zeros(16)), 8), "rho0 has no mass"),
    (lambda kset: step(ParticleState(np.array([[0.5]])), kset, 0.0), "dt must be positive"),
], ids=["quantile-zero-field", "step-dt-0"])
def test_refusals(kset_1d, call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(kset_1d)
