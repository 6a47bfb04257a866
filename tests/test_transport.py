import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusdpa.transport as T
from torusdpa.fields import GridField
from torusdpa.geometry import min_image, torus_cost_sq
from torusdpa.oracles import brute_w2, dense_lp_w2
from torusdpa.transport import (
    DiscreteMeasure,
    grid_to_measure,
    w2_circle_exact,
    w2_exact_lp,
)


def uniform_measure(points):
    return DiscreteMeasure(np.asarray(points, dtype=float))


def grid_measure(n=512):
    x = np.arange(n) / n
    vals = 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.sin(6 * np.pi * x)
    return grid_to_measure(GridField(vals / vals.mean()))


def plan_cost(plan, mu, nu):
    return float(np.dot(plan.weights, torus_cost_sq(mu.points[plan.rows], nu.points[plan.cols])))


def draw_measure(rng, n, weights, duplicates, share=None):
    """n atoms on the circle; weights "equal", "random" or "zeros" (random
    with some exact zeros); duplicates repeat atoms, and share (another
    point set) lends some of its atoms."""
    pts = rng.random(n)
    if duplicates and n > 1:
        k = int(rng.integers(1, n))
        pts[rng.choice(n, k, replace=False)] = rng.choice(pts, k)
    if share is not None:
        k = int(rng.integers(0, min(n, share.size) + 1))
        pts[:k] = rng.choice(share, k, replace=False)
    if weights == "equal":
        return DiscreteMeasure(pts[:, None])
    w = rng.random(n) + 0.05
    if weights == "zeros" and n > 1:
        w[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 0.0
    return DiscreteMeasure(pts[:, None], w / w.sum())


def lattice_measure(rng, k, d):
    """Random weights on the k^d lattice, about a fifth of them exactly zero."""
    x = np.arange(k) / k
    pts = np.stack(np.meshgrid(*[x] * d, indexing="ij"), axis=-1).reshape(-1, d)
    w = rng.random(len(pts))
    w[rng.random(len(pts)) < 0.2] = 0.0
    return DiscreteMeasure(pts, w / w.sum())


def assert_matches_dense(mu, nu):
    w, plan = w2_exact_lp(mu, nu)
    assert w == pytest.approx(dense_lp_w2(mu.points, mu.weights, nu.points, nu.weights),
                              rel=1e-10)
    assert max(plan.marginal_errors(mu, nu)) <= 1e-9
    assert plan_cost(plan, mu, nu) == pytest.approx(w * w, rel=1e-12)


def count_calls(monkeypatch):
    """The cuts of every _CircleProblem.slope and .cost call from now on."""
    calls = {"slope": [], "cost": []}
    slope, cost = T._CircleProblem.slope, T._CircleProblem.cost
    monkeypatch.setattr(T._CircleProblem, "slope", lambda prob, theta, right:
                        calls["slope"].append(theta) or slope(prob, theta, right))
    monkeypatch.setattr(T._CircleProblem, "cost", lambda prob, theta:
                        calls["cost"].append(theta) or cost(prob, theta))
    return calls


class TestCircle:
    def test_identity(self, rng):
        mu = uniform_measure(rng.random((12, 1)))
        w, plan = w2_circle_exact(mu, mu)
        assert w <= 1e-12
        assert max(plan.marginal_errors(mu, mu)) <= 1e-9

    def test_diracs(self):
        mu = uniform_measure([[0.1]])
        assert w2_circle_exact(mu, uniform_measure([[0.3]]))[0] == pytest.approx(0.2)
        # nominal separation 0.7 wraps to 0.3
        assert w2_circle_exact(mu, uniform_measure([[0.8]]))[0] == pytest.approx(0.3)

    def test_matches_brute_force(self, rng):
        for _ in range(8):
            X, Y = rng.random((4, 1)), rng.random((4, 1))
            w, plan = w2_circle_exact(uniform_measure(X), uniform_measure(Y))
            assert w == pytest.approx(brute_w2(X, Y), abs=1e-10)
            assert max(plan.marginal_errors(uniform_measure(X), uniform_measure(Y))) <= 1e-9

    def test_matches_lp_general_weights(self, rng):
        for _ in range(5):
            X, Y = rng.random((7, 1)), rng.random((11, 1))
            a = rng.random(7)
            b = rng.random(11)
            mu = DiscreteMeasure(X, a / a.sum())
            nu = DiscreteMeasure(Y, b / b.sum())
            wc, _ = w2_circle_exact(mu, nu)
            wl, _ = w2_exact_lp(mu, nu)
            assert wc == pytest.approx(wl, abs=1e-8)

    def test_rejects_2d(self, rng):
        mu = DiscreteMeasure(rng.random((3, 2)))
        with pytest.raises(ValueError):
            w2_circle_exact(mu, mu)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from(["equal", "random", "zeros"]),
        st.sampled_from(["equal", "random", "zeros"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_exact_references(self, n, m, wmu, wnu, duplicates, seed):
        rng = np.random.default_rng(seed)
        mu = draw_measure(rng, n, wmu, duplicates)
        nu = draw_measure(rng, m, wnu, duplicates, share=mu.points[:, 0])
        w, plan = w2_circle_exact(mu, nu)
        assert max(plan.marginal_errors(mu, nu)) <= 1e-9
        # the plan is feasible, so its minimum-image cost is at least W2^2;
        # the search reports the cost of that very plan
        assert plan_cost(plan, mu, nu) == pytest.approx(w * w, abs=1e-12)
        # w2_exact_lp is the assignment solver for equal sizes and weights
        exact = n == m and mu.is_uniform() and nu.is_uniform()
        assert w == pytest.approx(w2_exact_lp(mu, nu)[0], abs=1e-10 if exact else 1e-8)
        if exact and n <= 8:
            assert w == pytest.approx(brute_w2(mu.points, nu.points), abs=1e-10)

    def test_large_equal_weights_match_assignment(self, rng):
        mu = DiscreteMeasure(rng.random((1000, 1)))
        nu = DiscreteMeasure(rng.random((1000, 1)))
        w, plan = w2_circle_exact(mu, nu)
        assert w == pytest.approx(w2_exact_lp(mu, nu)[0], abs=1e-10)
        assert max(plan.marginal_errors(mu, nu)) <= 1e-9

    def test_cloud_against_grid_measure(self, rng):
        mu = DiscreteMeasure(rng.random((1000, 1)))
        nu = grid_measure()
        w, plan = w2_circle_exact(mu, nu)
        assert max(plan.marginal_errors(mu, nu)) <= 1e-9
        assert plan_cost(plan, mu, nu) == pytest.approx(w * w, abs=1e-12)

    def test_grid_measure_against_itself_is_exactly_zero(self):
        mu = grid_measure()
        w, plan = w2_circle_exact(mu, grid_measure())
        assert w == 0.0
        assert max(plan.marginal_errors(mu, mu)) <= 1e-9

    def test_flat_minimum(self):
        # a half-spacing shift of a lattice: every cut between the two
        # matchings that move all atoms by 1/100 either way costs the same
        x = np.arange(50) / 50
        mu = uniform_measure(x[:, None])
        nu = uniform_measure(x[:, None] + 0.01)
        w, plan = w2_circle_exact(mu, nu)
        assert w == pytest.approx(0.01, abs=1e-14)
        assert max(plan.marginal_errors(mu, nu)) <= 1e-9

    @pytest.mark.parametrize("case", ["cloud-vs-grid", "twins"])
    def test_cost_evaluations_bounded(self, monkeypatch, rng, case):
        # a breakpoint search on the slopes, not a scan over a grid of cuts:
        # the cost is evaluated only at the few breakpoints left
        X = rng.random((1000, 1))
        mu = DiscreteMeasure(X)
        if case == "cloud-vs-grid":
            nu = grid_measure()
        else:
            nu = DiscreteMeasure(X + 1e-3 * rng.standard_normal((1000, 1)))
        calls = count_calls(monkeypatch)
        w2_circle_exact(mu, nu)
        assert len(calls["slope"]) <= 20
        assert len(calls["cost"]) <= T._BREAKPOINTS_LEFT

    def test_equal_weight_twins_count_distinct_breakpoints(self, monkeypatch, rng):
        # contraction twins: equal weights 1/128 repeat each breakpoint
        # (j - i)/128 up to 128 times, so a count with multiplicity never
        # falls to 16 before the bracket is roundoff-narrow; the distinct
        # count stops the search early, at the same distance and plan
        x = (np.arange(128) + 0.5) / 128
        x = x + 0.1 * np.sin(2 * np.pi * x) / (2 * np.pi)  # quantiles of a bumpy density
        mu = uniform_measure(x[:, None])
        nu = uniform_measure(x[:, None] + 1e-3 * rng.standard_normal((128, 1)))
        calls = count_calls(monkeypatch)
        w, plan = w2_circle_exact(mu, nu)
        assert len(calls["slope"]) <= 10
        few_left = T._CircleProblem.few_left

        def with_multiplicity(prob, a, b):  # repeat = 1: the count with multiplicity
            prob.repeat = 1
            return few_left(prob, a, b)

        monkeypatch.setattr(T._CircleProblem, "few_left", with_multiplicity)
        calls["slope"].clear()
        w_ref, plan_ref = w2_circle_exact(mu, nu)
        assert len(calls["slope"]) > 40
        assert w == w_ref
        for got, ref in ((plan.rows, plan_ref.rows), (plan.cols, plan_ref.cols),
                         (plan.weights, plan_ref.weights)):
            assert np.array_equal(got, ref)
        assert w == pytest.approx(w2_exact_lp(mu, nu)[0], abs=1e-10)

    @pytest.mark.parametrize("weights", ["random", "zeros"])
    def test_slopes_are_one_sided_differences_at_generic_cuts(self, rng, weights):
        # between its two nearest breakpoints the cost is linear, so either
        # slope is the cost's difference quotient over a step inside them
        for n, m in ((1, 1), (7, 11), (40, 25)):
            mu = draw_measure(rng, n, weights, duplicates=True)
            nu = draw_measure(rng, m, weights, duplicates=True, share=mu.points[:, 0])
            prob = T._CircleProblem(mu, nu)
            for theta in rng.uniform(-0.6, 0.6, 10):
                lo, hi = prob.candidates(theta, theta)
                h = 0.25 * min(theta - lo, hi - theta)
                right = (prob.cost(theta + h) - prob.cost(theta)) / h
                left = (prob.cost(theta) - prob.cost(theta - h)) / h
                assert prob.slope(theta, right=True) == pytest.approx(right, rel=1e-6, abs=1e-9)
                assert prob.slope(theta, right=False) == pytest.approx(left, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("n, m", [(1, 3), (6, 9), (20, 20)])
    def test_slopes_at_breakpoints_are_the_adjacent_pieces(self, rng, n, m):
        # weights in multiples of 1/64, some of them zero, so every level and
        # breakpoint is exact: at each breakpoint the right slope is the
        # quotient over the piece after it and the left slope over the piece
        # before it, and the left slope is at most the right one (convexity)
        def dyadic(k):
            w = rng.multinomial(64, np.full(k, 1.0 / k)) / 64.0
            return DiscreteMeasure(rng.random((k, 1)), w)

        prob = T._CircleProblem(dyadic(n), dyadic(m))
        bps = prob.candidates(-0.75, 0.75)
        quotients = np.diff([prob.cost(t) for t in bps]) / np.diff(bps)
        for k, t in enumerate(bps):
            left, right = prob.slope(t, right=False), prob.slope(t, right=True)
            assert left <= right + 1e-12
            if k > 0:
                assert left == pytest.approx(quotients[k - 1], rel=1e-9, abs=1e-12)
            if k < quotients.size:
                assert right == pytest.approx(quotients[k], rel=1e-9, abs=1e-12)

    def test_candidates_are_the_distinct_breakpoints(self, rng):
        # equal weights repeat each breakpoint up to min(n, m) times
        for n, m in ((128, 128), (64, 96), (7, 7)):
            x = (np.arange(n) + 0.5) / n
            prob = T._CircleProblem(uniform_measure(x[:, None]),
                                    uniform_measure(np.arange(m)[:, None] / m))
            for a, b in [(-1.0, 1.0), (-0.25, 0.125)] + [tuple(np.sort(rng.uniform(-1, 1, 2)))
                                                         for _ in range(5)]:
                lo, hi = prob._window(a, b)
                pts = np.concatenate([prob.BB[l:h] - A for l, h, A in zip(lo, hi, prob.A)])
                if pts.size:
                    assert np.array_equal(prob.candidates(a, b), np.unique(pts))


class TestExactLP:
    def test_identity(self, rng):
        mu = DiscreteMeasure(rng.random((6, 2)))
        w, _ = w2_exact_lp(mu, mu)
        assert w <= 1e-12

    def test_rigid_translation_of_cluster(self, rng):
        # cluster of diameter < 1/2 - |s| shifted by s: W2 = |s|
        base = 0.3 + 0.05 * rng.random((10, 2))
        shift = np.array([0.12, -0.07])
        mu = DiscreteMeasure(base)
        nu = DiscreteMeasure(base + shift)
        w, _ = w2_exact_lp(mu, nu)
        assert w == pytest.approx(np.linalg.norm(shift), abs=1e-10)

    def test_plan_feasibility(self, rng):
        X, Y = rng.random((5, 2)), rng.random((9, 2))
        a = rng.random(5)
        b = rng.random(9)
        mu = DiscreteMeasure(X, a / a.sum())
        nu = DiscreteMeasure(Y, b / b.sum())
        _, plan = w2_exact_lp(mu, nu)
        assert max(plan.marginal_errors(mu, nu)) <= 1e-9

    def test_dimension_mismatch_rejected(self, rng):
        mu = DiscreteMeasure(rng.random((6, 2)))
        nu = DiscreteMeasure(rng.random((6, 1)))
        with pytest.raises(ValueError, match="dimensions"):
            w2_exact_lp(mu, nu)
        with pytest.raises(ValueError, match="dimensions"):
            w2_exact_lp(nu, mu)

    @pytest.mark.parametrize("d, k", [(1, 16), (1, 64), (1, 256), (2, 4), (2, 8), (2, 16)])
    def test_lattices_match_dense_reference(self, rng, d, k):
        # random weights on k^d lattices, about a fifth of them exactly zero
        mu, nu = lattice_measure(rng, k, d), lattice_measure(rng, k, d)
        assert_matches_dense(mu, nu)

    @pytest.mark.parametrize("d", [1, 2])
    def test_particles_match_dense_reference(self, rng, d):
        k = 256 if d == 1 else 16
        cloud = DiscreteMeasure(rng.random((150, d)))
        assert_matches_dense(cloud, lattice_measure(rng, k, d))
        assert_matches_dense(lattice_measure(rng, k, d), cloud)
        w = rng.random(90)
        assert_matches_dense(cloud, DiscreteMeasure(rng.random((90, d)), w / w.sum()))

    def test_equal_uniform_pairs_above_the_assignment_bound(self, rng, monkeypatch):
        mu = DiscreteMeasure(rng.random((80, 2)))
        nu = DiscreteMeasure(rng.random((80, 2)))
        w_assignment = w2_exact_lp(mu, nu)[0]
        monkeypatch.setattr(T, "_ASSIGNMENT_ATOMS", 79)
        w, plan = w2_exact_lp(mu, nu)
        assert w == pytest.approx(w_assignment, rel=1e-10)
        assert max(plan.marginal_errors(mu, nu)) <= 1e-9

    def test_certificate_finds_a_removed_pair(self, rng, monkeypatch):
        monkeypatch.setattr(T, "_CHUNK_ENTRIES", 100)  # one row per chunk
        mu, nu = lattice_measure(rng, 8, 2), lattice_measure(rng, 8, 2)
        a, b = (T._Level(m.points, m.weights, (m.points * 8).astype(int), 8) for m in (mu, nu))
        full = np.arange(a.n * b.n)
        gamma, u, v = T._sparse_lp(a, b, full)
        # the dense optimum's duals are feasible: a brute-force reduced-cost check
        cost = torus_cost_sq(mu.points[:, None], nu.points[None])
        assert np.min(cost - u[:, None] - v[None, :]) >= -1e-10
        # pairs already in the LP are never violators, whatever the duals
        assert T._violators(a, b, u + 1.0, v, full)[0].size == 0
        removed = full[np.argmax(gamma)]
        keys = np.delete(full, removed)
        _, u, v = T._sparse_lp(a, b, keys)
        i, j = T._violators(a, b, u, v, keys)
        assert list(zip(i, j)) == [divmod(removed, b.n)]

    def test_metric_axioms_on_triples(self, rng):
        for _ in range(5):
            ms = [DiscreteMeasure(rng.random((nk, 1))) for nk in (8, 13, 21)]
            d01 = w2_exact_lp(ms[0], ms[1])[0]
            d10 = w2_exact_lp(ms[1], ms[0])[0]
            d12 = w2_exact_lp(ms[1], ms[2])[0]
            d02 = w2_exact_lp(ms[0], ms[2])[0]
            assert d01 == pytest.approx(d10, abs=1e-10)
            assert d02 <= d01 + d12 + 1e-9


class TestW2:
    def test_picks_the_solver_by_dimension(self, rng):
        mu1, nu1 = DiscreteMeasure(rng.random((7, 1))), DiscreteMeasure(rng.random((9, 1)))
        assert T.w2(mu1, nu1) == w2_circle_exact(mu1, nu1)[0]
        mu2, nu2 = DiscreteMeasure(rng.random((6, 2))), DiscreteMeasure(rng.random((6, 2)))
        assert T.w2(mu2, nu2) == w2_exact_lp(mu2, nu2)[0]

    def test_circle_solver_is_read_from_the_module(self, rng, monkeypatch):
        # callers that rebind transport.w2_circle_exact (a tracer, say) see w2 use it
        calls = []
        monkeypatch.setattr(T, "w2_circle_exact", lambda mu, nu: calls.append(1) or (0.5, None))
        assert T.w2(DiscreteMeasure(rng.random((3, 1))), DiscreteMeasure(rng.random((3, 1)))) == 0.5
        assert calls == [1]

    def test_dimension_mismatch_raises_before_any_solver(self, rng, monkeypatch):
        def solver(mu, nu):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(T, "w2_circle_exact", solver)
        monkeypatch.setattr(T, "w2_exact_lp", solver)
        with pytest.raises(ValueError, match="different dimensions: 1 and 2"):
            T.w2(DiscreteMeasure(rng.random((3, 1))), DiscreteMeasure(rng.random((3, 2))))


class TestGridToMeasure:
    def test_uniform_lattice(self):
        m = grid_to_measure(GridField.constant(1.0, 16))
        assert m.n == 16
        assert np.allclose(m.weights, 1.0 / 16)
        assert np.allclose(m.points[:, 0], np.arange(16) / 16)

    def test_coarsening_conserves_mass(self, rng):
        vals = 1.0 + rng.random(256)
        f = GridField(vals / (vals.sum() / 256))
        fine = grid_to_measure(f)
        coarse = grid_to_measure(f, max_atoms=64)
        assert coarse.n <= 64
        assert coarse.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coarsening_w2_bound(self, rng):
        vals = 1.0 + rng.random(256)
        f = GridField(vals / (vals.sum() / 256))
        fine = grid_to_measure(f)
        coarse = grid_to_measure(f, max_atoms=64)
        w, _ = w2_circle_exact(fine, coarse)
        h_coarse = 4.0 / 256  # factor-4 blocks
        assert w <= h_coarse * np.sqrt(1) / 2.0

    @pytest.mark.parametrize("max_atoms", [None, 4])
    def test_no_positive_mass_rejected(self, max_atoms):
        with pytest.raises(ValueError, match="no positive mass"):
            grid_to_measure(GridField(np.zeros(16)), max_atoms=max_atoms)

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError):
            grid_to_measure(GridField(np.array([1.0, -0.5, 1.0, 1.0])))

    @pytest.mark.parametrize("max_atoms", [0, -1])
    def test_nonpositive_max_atoms_rejected(self, max_atoms):
        with pytest.raises(ValueError, match="max_atoms must be positive"):
            grid_to_measure(GridField.constant(1.0, 16), max_atoms=max_atoms)


def test_kantorovich_rubinstein_bound(rng):
    # |int phi d(mu - nu)| <= W2 for 1-Lipschitz phi (built as min of cones)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        mu = DiscreteMeasure(rng.random((n, 1)))
        nu = DiscreteMeasure(rng.random((n, 1)))
        k = int(rng.integers(1, 4))
        anchors = rng.random((k, 1))
        offsets = rng.random(k)

        def phi(pts):
            d = np.abs(min_image(pts[:, None, :], anchors[None, :, :]))[..., 0]
            return np.min(offsets[None, :] + d, axis=1)

        gap = abs(
            np.sum(mu.weights * phi(mu.points)) - np.sum(nu.weights * phi(nu.points))
        )
        w, _ = w2_circle_exact(mu, nu)
        assert gap <= w + 1e-12


@pytest.mark.parametrize("weights, fragment", [
    (np.full(3, 0.25), "weights shape mismatch"),
    (np.array([1.5, -0.25, -0.25, 0.0]), "negative weights"),
    (np.full(4, 0.3), "weights sum to 1.2"),
], ids=["shape", "negative", "sum"])
def test_discrete_measure_refusals(weights, fragment):
    with pytest.raises(ValueError, match=fragment):
        DiscreteMeasure(np.linspace(0.0, 0.75, 4)[:, None], weights)
