"""2-Wasserstein distances on the torus between discrete measures.

Two exact routes, and ``w2``, which picks the one for a pair's dimension:

* ``w2_circle_exact``: d = 1.  The cost of the rotation-parametrized
  monotone matching is convex and piecewise linear in the cut parameter, so
  the minimum is attained at a breakpoint B_j - A_i + k (A, B the two CDFs);
  a safeguarded secant on the cost's one-sided slopes (Delon, Salomon &
  Sobolevski, SIAM J. Appl. Math. 2010) narrows the cut to a few
  breakpoints, counted by binary search, and the cost is evaluated at each
  of them.
* ``w2_exact_lp``: any d, via assignment (equal sizes and weights, up to
  _ASSIGNMENT_ATOMS atoms) or a coarse-to-fine sparse LP solved by HiGHS,
  whose dense reduced costs certify that its optimum is the dense LP's.

Only ``w2_exact_lp`` needs scipy (HiGHS and the assignment solver), and
it imports scipy on its first call in a process, so importing this module,
or the package, loads numpy and the standard library only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import GridField
from .geometry import min_image, torus_cost_sq, wrap

__all__ = [
    "DiscreteMeasure",
    "TransportPlan",
    "w2",
    "w2_circle_exact",
    "w2_exact_lp",
    "grid_to_measure",
    "coarsening_factor",
]

# equal-size uniform pairs up to this many atoms go to the assignment solver
_ASSIGNMENT_ATOMS = 3000
# the coarsest level of the sparse LP has at most this many atoms per side
_COARSEST_ATOMS = 64
# the primal and dual feasibility tolerance of every LP solve; a pair whose
# reduced cost is below -_LP_TOL violates the certificate.  At HiGHS's default
# 1e-7 the LP stops measurably above the optimum on costs of order 1e-2
_LP_TOL = 1e-10
_LP_OPTIONS = {"primal_feasibility_tolerance": _LP_TOL, "dual_feasibility_tolerance": _LP_TOL}
# the certificate reads the dense cost matrix in row chunks of about this many entries
_CHUNK_ENTRIES = 1 << 20

# the circle search brackets the cut until at most this many distinct
# breakpoints are left, then evaluates the cost at each of them
_BREAKPOINTS_LEFT = 16
# cuts closer than this are one cut: breakpoints carry roundoff of order
# eps, and a bisection of a wider bracket lies strictly inside it
_THETA_ROUNDOFF = 16 * np.finfo(float).eps


@dataclass
class DiscreteMeasure:
    """Weighted atoms on the torus; weights are a probability vector."""

    points: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = wrap(np.atleast_2d(np.asarray(self.points, dtype=float)))
        n = self.points.shape[0]
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (n,):
            raise ValueError("weights shape mismatch")
        if self.weights.min() < -1e-15:
            raise ValueError("negative weights")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum():.15f}, not 1")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def is_uniform(self) -> bool:
        return bool(np.max(np.abs(self.weights - 1.0 / self.n)) < 1e-13)


@dataclass
class TransportPlan:
    """Sparse coupling between two discrete measures."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    shape: tuple

    def marginal_errors(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        row = np.zeros(self.shape[0])
        col = np.zeros(self.shape[1])
        np.add.at(row, self.rows, self.weights)
        np.add.at(col, self.cols, self.weights)
        return (
            float(np.max(np.abs(row - mu.weights))),
            float(np.max(np.abs(col - nu.weights))),
        )


# ---------------------------------------------------------------------------
# exact 1-d circular transport


class _CircleProblem:
    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        xs = np.argsort(mu.points[:, 0], kind="stable")
        ys = np.argsort(nu.points[:, 0], kind="stable")
        self.x = mu.points[xs, 0]
        self.y = nu.points[ys, 0]
        self.xperm = xs
        self.yperm = ys
        self.A = np.cumsum(mu.weights[xs])
        self.B = np.cumsum(nu.weights[ys])
        self.A[-1] = 1.0
        self.B[-1] = 1.0
        self.m = self.y.size
        self.repeat = min(self.A.size, self.m)
        self.yy = np.concatenate([self.y - 1.0, self.y, self.y + 1.0])
        self.BB = np.concatenate([self.B - 1.0, self.B, self.B + 1.0])

    def _segments(self, theta: float):
        tb = self.B - theta
        wrapped = tb - np.floor(tb)
        wrapped = np.where(wrapped <= 0.0, wrapped + 1.0, wrapped)
        levels = np.concatenate([self.A, wrapped])
        levels.sort()
        np.maximum(levels, 0.0, out=levels)
        np.minimum(levels, 1.0, out=levels)
        seg = np.empty_like(levels)
        seg[0] = levels[0]
        np.subtract(levels[1:], levels[:-1], out=seg[1:])
        mid = levels - 0.5 * seg
        # searchsorted indices are never negative: clamp from above only
        iu = np.minimum(np.searchsorted(self.A, mid, side="left"), self.A.size - 1)
        iv = np.minimum(np.searchsorted(self.BB, mid + theta, side="left"), self.BB.size - 1)
        return seg, iu, iv

    def cost(self, theta: float) -> float:
        seg, iu, iv = self._segments(theta)
        disp = self.x[iu] - self.yy[iv]
        return float(np.dot(seg, disp * disp))

    def plan(self, theta: float) -> TransportPlan:
        seg, iu, iv = self._segments(theta)
        keep = seg > 0.0
        rows = self.xperm[iu[keep]]
        cols = self.yperm[np.mod(iv[keep], self.m)]
        return TransportPlan(
            rows=rows, cols=cols, weights=seg[keep], shape=(self.A.size, self.m)
        )

    def slope(self, theta: float, right: bool) -> float:
        """The right (right=True) or left one-sided derivative of cost at theta.

        As theta grows every nu level moves down, so the segment above a nu
        level grows and the one below it shrinks: the slope is the sum over
        nu levels of the above segment's cost minus the below one's.  Each
        segment's pair comes from the number of mu and nu levels below it, a
        tie putting the nu levels below (right) or above (left) the mu
        levels they meet, so a segment of zero length at a tie gets the pair
        of its one-sided perturbation.  Atom i of mu meets the lifted nu
        atoms c_i .. c_(i+1), c_(i+1) the nu levels below its top A_i, and
        its sum over the nu levels inside it telescopes to
        (x_i - yy[c_(i+1)])^2 - (x_i - yy[c_i])^2.  The counts compare BB_j
        with A_i + theta as _window does, and c_0 is c_n less one period."""
        last = self.yy.size - 1
        c = np.searchsorted(self.BB, self.A + theta, side="right" if right else "left")
        np.minimum(c, last, out=c)
        below = np.empty_like(c)
        below[0] = c[-1] - self.m
        below[1:] = c[:-1]
        lo, hi = self.yy[below], self.yy[c]
        return float(np.einsum("i,i->", lo - hi, 2.0 * self.x - lo - hi))

    def _window(self, a: float, b: float):
        """Per atom i of mu, the range [lo, hi) of lifted levels BB_j with
        a <= BB_j - A_i <= b, i.e. of the breakpoints in [a, b]."""
        lo = np.searchsorted(self.BB, self.A + a, side="left")
        hi = np.searchsorted(self.BB, self.A + b, side="right")
        return lo, hi

    def few_left(self, a: float, b: float) -> bool:
        """Whether at most _BREAKPOINTS_LEFT distinct breakpoints lie in [a, b].

        Counting with multiplicity is cheap; the distinct ones are counted
        (candidates) only once that count is at most _BREAKPOINTS_LEFT times
        self.repeat, the mean multiplicity last measured: at first the most
        one breakpoint can repeat, min(n, m), then the count over the
        distinct number of the last bracket that had too many."""
        lo, hi = self._window(a, b)
        count = int((hi - lo).sum())
        if count <= _BREAKPOINTS_LEFT:
            return True
        if count > _BREAKPOINTS_LEFT * self.repeat:
            return False
        distinct = self.candidates(a, b).size
        self.repeat = count / distinct
        return distinct <= _BREAKPOINTS_LEFT

    def candidates(self, a: float, b: float) -> np.ndarray:
        """The distinct breakpoints in [a, b]; for an empty bracket, which
        lies inside a linear piece, the nearest breakpoint on each side."""
        lo, hi = self._window(a, b)
        cnt = hi - lo
        if cnt.sum() == 0:
            left = lo > 0
            right = hi < self.BB.size
            return np.array([
                np.max(self.BB[lo[left] - 1] - self.A[left]),
                np.min(self.BB[hi[right]] - self.A[right]),
            ])
        rows = np.repeat(np.arange(self.A.size), cnt)
        cols = np.arange(cnt.sum()) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        vals = self.BB[cols] - self.A[rows]
        vals.sort()
        keep = np.empty(vals.size, dtype=bool)
        keep[0] = True
        np.not_equal(vals[1:], vals[:-1], out=keep[1:])
        return vals[keep]


def w2_circle_exact(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact W2 on the circle with the optimal monotone plan.

    Returns (distance, TransportPlan).  The cut cost theta -> cost(theta) is
    convex and piecewise linear with breakpoints B_j - A_i + k, so a minimum
    sits at a breakpoint.  A secant on the one-sided slopes (Illinois step,
    bisection when the step leaves the bracket or the slopes are equal)
    shrinks the bracket [-1, 1]: a right slope below 0 at t moves its left
    end to t, a left slope above 0 its right end, and a t with neither is a
    minimizer, the bracket [t, t].  It stops once at most _BREAKPOINTS_LEFT
    distinct breakpoints remain in the bracket (equal weights repeat one
    breakpoint up to min(n, m) times), or once it is roundoff-narrow; the
    cost is then evaluated at each distinct breakpoint left, or at the two
    nearest ones outside an empty bracket (a flat minimum).  No tolerance
    enters the result.
    """
    if mu.d != 1 or nu.d != 1:
        raise ValueError("w2_circle_exact is one-dimensional only")
    prob = _CircleProblem(mu, nu)
    a, b = -1.0, 1.0
    fa, fb = prob.slope(a, right=True), prob.slope(b, right=False)
    kept = 0  # the end the last step kept: -1 for a, 1 for b
    while b - a > _THETA_ROUNDOFF and not prob.few_left(a, b):
        # the secant step, or bisection where the slopes are equal or the
        # step leaves (a, b)
        t = a - fa * ((b - a) / (fb - fa)) if fb > fa else a
        if not a < t < b:
            t = 0.5 * (a + b)
        ft = prob.slope(t, right=True)
        if ft < 0.0:
            a, fa = t, ft
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            ft = prob.slope(t, right=False)
            if ft <= 0.0:
                a = b = t
                break
            b, fb = t, ft
            if kept == -1:
                fa *= 0.5
            kept = -1
    cand = prob.candidates(a, b)
    vals = [prob.cost(t) for t in cand]
    k = int(np.argmin(vals))
    return float(np.sqrt(max(vals[k], 0.0))), prob.plan(cand[k])


# ---------------------------------------------------------------------------
# exact transport: assignment, or a coarse-to-fine sparse LP


class _Level:
    """One side of one level of the coarse-to-fine LP: atoms (points,
    weights), the cell q of each on the r^d lattice, and the atoms sorted by
    cell, those of flat cell c at order[start[c]:start[c + 1]]."""

    def __init__(self, points, weights, q, r):
        self.points, self.weights, self.q, self.r = points, weights, q, r
        self.n = weights.size
        flat = self.flat(q)
        self.order = np.argsort(flat, kind="stable")
        self.start = np.searchsorted(flat[self.order], np.arange(r ** q.shape[-1] + 1))

    def flat(self, cells):
        """Flat indices of the cells (..., d), taken periodically."""
        shape = (self.r,) * cells.shape[-1]
        return np.ravel_multi_index(np.moveaxis(cells % self.r, -1, 0), shape)

    def coarser(self) -> "_Level":
        """The nonempty cells of the lattice twice as coarse, as atoms at the
        barycenters of their mass."""
        q, parent = np.unique(self.q // 2, axis=0, return_inverse=True)
        w = np.bincount(parent, self.weights)
        pts = np.stack([np.bincount(parent, self.weights * x) for x in self.points.T], axis=1)
        return _Level(pts / w[:, None], w, q, self.r // 2)

    def members(self, cells, partner):
        """(partner[k], atom) for every atom in the flat cell cells[k]."""
        count = self.start[cells + 1] - self.start[cells]
        first = np.repeat(self.start[cells] - np.cumsum(count) + count, count)
        return np.repeat(partner, count), self.order[np.arange(count.sum()) + first]

    def first(self, cells):
        """The first atom in each flat cell, or -1 for an empty one."""
        atom = self.order[np.minimum(self.start[cells], self.n - 1)]
        return np.where(self.start[cells + 1] > self.start[cells], atom, -1)


def _sparse_lp(a: _Level, b: _Level, keys):
    """The optimal plan g >= 0 on the pairs keys = i * b.n + j with the
    marginals of a and b, and the duals (u, v) of its row and column
    constraints (the last column's is implied by the others and dropped:
    v = 0 there)."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    rows, cols = np.divmod(keys, b.n)
    keep = np.flatnonzero(cols < b.n - 1)
    A = coo_matrix(
        (np.ones(keys.size + keep.size),
         (np.concatenate([rows, a.n + cols[keep]]), np.concatenate([np.arange(keys.size), keep]))),
        shape=(a.n + b.n - 1, keys.size),
    )
    res = linprog(torus_cost_sq(a.points[rows], b.points[cols]), A_eq=A.tocsr(),
                  b_eq=np.concatenate([a.weights, b.weights[:-1]]), bounds=(0, None),
                  method="highs-ipm", options=_LP_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    y = res.eqlin.marginals
    return res.x, y[:a.n], np.append(y[a.n:], 0.0)


def _violators(a: _Level, b: _Level, u, v, keys):
    """Per row i, the pair (i, j) not among keys whose reduced cost
    C_ij - u_i - v_j is least, if it is below -_LP_TOL.  The dense reduced
    costs are read in row chunks, one axis of the cost at a time."""
    step = max(1, _CHUNK_ENTRIES // b.n)
    rows, cols = [], []
    for lo in range(0, a.n, step):
        hi = min(lo + step, a.n)
        reduced = -u[lo:hi, None] - v
        for ax in range(a.points.shape[1]):
            reduced += min_image(a.points[lo:hi, ax, None], b.points[:, ax]) ** 2
        own = keys[np.searchsorted(keys, lo * b.n):np.searchsorted(keys, hi * b.n)]
        reduced.ravel()[own - lo * b.n] = np.inf
        j = reduced.argmin(axis=1)
        i = np.flatnonzero(reduced[np.arange(hi - lo), j] < -_LP_TOL)
        rows.append(i + lo)
        cols.append(j[i])
    return np.concatenate(rows), np.concatenate(cols)


def _solve_level(a: _Level, b: _Level, keys):
    """The optimal plan between one level's atoms: the sparse LP on the
    pairs keys, grown by each violator and the pairs of first atoms in its
    cells' lattice neighbours (c_i + o, c_j + o), until there is none.  Then
    the duals are feasible for the dense LP, so the sparse optimum is the
    dense one.  Returns the pairs and the plan on them."""
    d = a.q.shape[1]
    near = np.indices((3,) * d).reshape(d, -1).T - 1
    while True:
        keys = np.unique(keys)
        gamma, u, v = _sparse_lp(a, b, keys)
        i, j = _violators(a, b, u, v, keys)
        if i.size == 0:
            return keys, gamma
        ni = a.first(a.flat(a.q[i][:, None, :] + near))
        nj = b.first(b.flat(b.q[j][:, None, :] + near))
        both = (ni >= 0) & (nj >= 0)
        keys = np.concatenate([keys, i * b.n + j, ni[both] * b.n + nj[both]])


def _coarse_to_fine(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """An optimal plan (rows, cols, weights) by the coarse-to-fine sparse LP,
    its rows on the side with more atoms, since each round adds at most one
    violator per row."""
    if mu.n < nu.n:
        cols, rows, gamma = _coarse_to_fine(nu, mu)
        return rows, cols, gamma
    d = mu.d
    r = 1
    while r**d < mu.n:
        r *= 2
    atoms = [np.flatnonzero(ms.weights > 0) for ms in (mu, nu)]
    levels = [tuple(_Level(ms.points[k], ms.weights[k], (ms.points[k] * r).astype(int), r)
                    for ms, k in zip((mu, nu), atoms))]
    while max(lv.n for lv in levels[-1]) > _COARSEST_ATOMS:
        levels.append(tuple(lv.coarser() for lv in levels[-1]))
    a, b = levels.pop()
    keys, gamma = _solve_level(a, b, np.arange(a.n * b.n))
    children = np.indices((2,) * d).reshape(d, -1).T
    for fine_a, fine_b in reversed(levels):
        rows, cols = np.divmod(keys[gamma > 0], b.n)
        cols, rows = fine_a.members(fine_a.flat(2 * a.q[rows][:, None, :] + children).ravel(),
                                    np.repeat(cols, 2**d))
        rows, cols = fine_b.members(fine_b.flat(2 * b.q[cols][:, None, :] + children).ravel(),
                                    np.repeat(rows, 2**d))
        a, b = fine_a, fine_b
        keys, gamma = _solve_level(a, b, rows * b.n + cols)
    rows, cols = np.divmod(keys[gamma > 0], b.n)
    return atoms[0][rows], atoms[1][cols], gamma[gamma > 0]


def w2_exact_lp(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact W2 for discrete measures in any dimension, with an optimal plan.

    Equal-size uniform pairs of at most _ASSIGNMENT_ATOMS atoms go through
    the assignment solver.  Every other pair goes through a coarse-to-fine
    sparse LP (Merigot 2011, Schmitzer 2016): the atoms of positive weight
    are binned onto r^d cells, r the least power of two with r^d at least
    the larger atom count, then r is halved, each nonempty cell an atom,
    until each side has at most _COARSEST_ATOMS; that level is solved on
    the full product, and each finer one from the children of the coarser
    plan's support, until its dense reduced costs certify the optimum.
    """
    if mu.d != nu.d:
        raise ValueError(f"measures live in different dimensions: {mu.d} and {nu.d}")
    if mu.n == nu.n <= _ASSIGNMENT_ATOMS and mu.is_uniform() and nu.is_uniform():
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(torus_cost_sq(mu.points[:, None], nu.points[None]))
        weights = np.full(mu.n, 1.0 / mu.n)
    else:
        rows, cols, weights = _coarse_to_fine(mu, nu)
    cost = float(np.dot(weights, torus_cost_sq(mu.points[rows], nu.points[cols])))
    return float(np.sqrt(max(cost, 0.0))), TransportPlan(rows, cols, weights, (mu.n, nu.n))


def w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2 between two measures on the same torus: w2_circle_exact in
    1-d, w2_exact_lp otherwise."""
    if mu.d != nu.d:
        raise ValueError(f"measures live in different dimensions: {mu.d} and {nu.d}")
    return (w2_circle_exact if mu.d == 1 else w2_exact_lp)(mu, nu)[0]


# ---------------------------------------------------------------------------
# grids to measures


def coarsening_factor(n: int, d: int, max_atoms: Optional[int]) -> int:
    """grid_to_measure's block side on an n^d grid: the least power of two
    that leaves at most max_atoms blocks, which must divide n."""
    if max_atoms is not None and max_atoms < 1:
        raise ValueError(f"max_atoms must be positive, got {max_atoms}")
    factor = 1
    while max_atoms is not None and (n // factor) ** d > max_atoms:
        factor *= 2
    if n % factor:
        raise ValueError(f"grid size {n} not divisible by coarsening factor {factor}")
    return factor


def grid_to_measure(rho: GridField, max_atoms: Optional[int] = None) -> DiscreteMeasure:
    """Atoms at grid nodes weighted by cell mass.  With max_atoms, the n^d grid
    is cut into blocks of a power-of-two side, the least that leaves at most
    max_atoms, each an atom at the barycenter of its mass.  Empty cells and
    blocks carry no atom, and a field without positive mass is refused."""
    if rho.values.min() < -1e-12:
        raise ValueError("negative density cells")
    n, d = rho.n, rho.d
    factor = coarsening_factor(n, d, max_atoms)
    vals = np.maximum(rho.values, 0.0)
    coords = np.meshgrid(*[np.arange(n) / n] * d, indexing="ij")
    if factor == 1:
        pts, w = np.stack([x.ravel() for x in coords], axis=1), vals.ravel()
    else:
        shape, inner = (n // factor, factor) * d, tuple(range(1, 2 * d, 2))
        blocks = vals.reshape(shape)
        w = blocks.sum(axis=inner).ravel()
        with np.errstate(invalid="ignore"):
            pts = np.stack([(x.reshape(shape) * blocks).sum(axis=inner).ravel() / w
                            for x in coords], axis=1)
    keep = w > 0
    if not keep.any():
        raise ValueError("no positive mass")
    return DiscreteMeasure(points=pts[keep], weights=w[keep] / w[keep].sum())
