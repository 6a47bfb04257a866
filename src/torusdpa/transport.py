"""2-Wasserstein distances on the torus between discrete measures.

Three routes with increasing generality:

* ``w2_circle_exact``: d = 1, exact.  The cost of the rotation-parametrized
  monotone matching is convex and piecewise linear in the cut parameter, so
  the minimum is attained at a breakpoint B_j - A_i + k (A, B the two CDFs);
  golden section narrows the cut to a few breakpoints, counted by binary
  search, and the cost is evaluated at each of them.
* ``w2_exact_lp``: any d, exact, via assignment (equal sizes and weights) or
  the HiGHS LP solver on the transport polytope.
* ``w2_sinkhorn``: entropic regularization in the log domain with symmetric
  (parallel) updates; returns the debiased divergence and the raw entropic
  cost as a bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix, vstack
from scipy.special import logsumexp

from .fields import GridField
from .geometry import min_image, wrap

__all__ = [
    "DiscreteMeasure",
    "TransportPlan",
    "w2_circle_exact",
    "w2_exact_lp",
    "w2_sinkhorn",
    "SinkhornResult",
    "grid_to_measure",
    "coarsening_factor",
    "check_lp_size",
    "cost_matrix",
]

_LP_SIZE_CAP = 3000
_LP_PRODUCT_CAP = 250_000
# atoms per side of the largest unequal-weight LP within the variable cap
LP_ATOMS_PER_SIDE = math.isqrt(_LP_PRODUCT_CAP)

# the circle search brackets the cut until at most this many distinct
# breakpoints are left, then evaluates the cost at each of them; one golden
# step costs one evaluation and removes about 38 % of them
_BREAKPOINTS_LEFT = 16
# cuts closer than this are one cut: breakpoints carry roundoff of order
# eps, and a golden step on a wider bracket keeps both probes strictly inside
_THETA_ROUNDOFF = 16 * np.finfo(float).eps
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


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


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Pairwise squared minimum-image cost."""
    if mu.d != nu.d:
        raise ValueError(f"measures live in different dimensions: {mu.d} and {nu.d}")
    diff = min_image(mu.points[:, None, :], nu.points[None, :, :])
    return np.sum(diff * diff, axis=-1)


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
        levels = np.sort(np.concatenate([self.A, wrapped]))
        levels = np.clip(levels, 0.0, 1.0)
        seg = np.diff(levels, prepend=0.0)
        mid = levels - 0.5 * seg
        iu = np.searchsorted(self.A, mid, side="left")
        iu = np.clip(iu, 0, self.A.size - 1)
        iv = np.searchsorted(self.BB, mid + theta, side="left")
        iv = np.clip(iv, 0, self.BB.size - 1)
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
        return np.unique(self.BB[cols] - self.A[rows])


def w2_circle_exact(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact W2 on the circle with the optimal monotone plan.

    Returns (distance, TransportPlan).  The cut cost theta -> cost(theta) is
    convex and piecewise linear with breakpoints B_j - A_i + k, so a minimum
    sits at a breakpoint.  Golden section shrinks the bracket [-1, 1] until
    at most _BREAKPOINTS_LEFT distinct breakpoints remain in it (equal
    weights repeat one breakpoint up to min(n, m) times), or until it is
    roundoff-narrow; the cost is then evaluated at each distinct breakpoint
    left, or at the two nearest ones outside an empty bracket (a flat
    minimum).  No tolerance enters the result.
    """
    if mu.d != 1 or nu.d != 1:
        raise ValueError("w2_circle_exact is one-dimensional only")
    prob = _CircleProblem(mu, nu)
    a, b = -1.0, 1.0
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = prob.cost(c), prob.cost(d)
    while b - a > _THETA_ROUNDOFF and not prob.few_left(a, b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = prob.cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = prob.cost(d)
    cand = prob.candidates(a, b)
    vals = [prob.cost(t) for t in cand]
    k = int(np.argmin(vals))
    return float(np.sqrt(max(vals[k], 0.0))), prob.plan(cand[k])


# ---------------------------------------------------------------------------
# exact transport via assignment / LP


def check_lp_size(n: int, m: int, assignment: bool = False):
    """Raise ValueError when w2_exact_lp would refuse supports of n and m
    atoms: the assignment route (equal sizes and uniform weights) caps each
    size, and the LP route also caps the number of plan variables."""
    if n > _LP_SIZE_CAP or m > _LP_SIZE_CAP:
        raise ValueError(
            f"support sizes {n}x{m} exceed the exact-solver cap "
            f"{_LP_SIZE_CAP}; use w2_sinkhorn"
        )
    if not assignment and n * m > _LP_PRODUCT_CAP:
        raise ValueError(
            f"LP with {n * m} variables exceeds cap {_LP_PRODUCT_CAP}; use w2_sinkhorn"
        )


def w2_exact_lp(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact W2 for discrete measures in any dimension.

    Equal-size uniform inputs go through the assignment solver; general
    weights go through the HiGHS LP on the transport polytope.
    """
    assignment = mu.n == nu.n and mu.is_uniform() and nu.is_uniform()
    check_lp_size(mu.n, nu.n, assignment)
    C = cost_matrix(mu, nu)
    if assignment:
        rows, cols = linear_sum_assignment(C)
        w = np.full(mu.n, 1.0 / mu.n)
        cost = float(C[rows, cols].mean())
        plan = TransportPlan(rows=rows, cols=cols, weights=w, shape=C.shape)
        return float(np.sqrt(max(cost, 0.0))), plan
    n, m = mu.n, nu.n
    ij = np.arange(n * m)
    rows_idx = ij // m
    cols_idx = ij % m
    data = np.ones(n * m)
    A_rows = coo_matrix((data, (rows_idx, ij)), shape=(n, n * m))
    sel = cols_idx < m - 1  # last column constraint is redundant
    A_cols = coo_matrix(
        (data[sel], (cols_idx[sel], ij[sel])), shape=(m - 1, n * m)
    )
    A_eq = vstack([A_rows, A_cols])
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    gamma = res.x
    keep = gamma > 1e-15
    plan = TransportPlan(
        rows=rows_idx[keep], cols=cols_idx[keep], weights=gamma[keep], shape=(n, m)
    )
    cost = float(np.dot(gamma, C.ravel()))
    return float(np.sqrt(max(cost, 0.0))), plan


# ---------------------------------------------------------------------------
# entropic transport


class SinkhornResult(NamedTuple):
    divergence: float
    entropic_cost: float
    iterations: int
    marginal_error: float


def _sinkhorn_cost(a, b, C, reg, max_iter, tol):
    la = np.log(a)
    lb = np.log(b)
    f = np.zeros_like(a)
    g = np.zeros_like(b)
    it = 0
    err = np.inf
    while it < max_iter:
        # symmetric (parallel) updates keep the algorithm invariant under
        # swapping the inputs, so the divergence is symmetric to roundoff
        f_new = -reg * logsumexp((g[None, :] - C) / reg + lb[None, :], axis=1)
        g_new = -reg * logsumexp((f[:, None] - C) / reg + la[:, None], axis=0)
        f, g = 0.5 * (f + f_new), 0.5 * (g + g_new)
        it += 1
        if it % 10 == 0 or it == max_iter:
            logP = (f[:, None] + g[None, :] - C) / reg + la[:, None] + lb[None, :]
            P = np.exp(logP)
            err = max(
                float(np.abs(P.sum(axis=1) - a).sum()),
                float(np.abs(P.sum(axis=0) - b).sum()),
            )
            if err < tol:
                break
    if err >= tol:
        raise RuntimeError(
            f"sinkhorn did not converge: marginal violation {err:.3e} after {it} iterations"
        )
    cost = float((P * C).sum())
    return cost, it, err


def w2_sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    reg: float,
    max_iter: int = 20000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Debiased entropic transport; divergence and raw cost bracket W2^2."""
    if reg <= 0:
        raise ValueError("reg must be positive")
    C = cost_matrix(mu, nu)
    cost, it, err = _sinkhorn_cost(mu.weights, nu.weights, C, reg, max_iter, tol)
    cmu, _, _ = _sinkhorn_cost(
        mu.weights, mu.weights, cost_matrix(mu, mu), reg, max_iter, tol
    )
    cnu, _, _ = _sinkhorn_cost(
        nu.weights, nu.weights, cost_matrix(nu, nu), reg, max_iter, tol
    )
    return SinkhornResult(
        divergence=cost - 0.5 * cmu - 0.5 * cnu,
        entropic_cost=cost,
        iterations=it,
        marginal_error=err,
    )


# ---------------------------------------------------------------------------
# grids to measures


def coarsening_factor(n: int, d: int, max_atoms: Optional[int] = None) -> int:
    """The power-of-two block size grid_to_measure uses to bring the n^d grid
    to at most max_atoms atoms (1: no coarsening)."""
    if max_atoms is not None and max_atoms < 1:
        raise ValueError(f"max_atoms must be positive, got {max_atoms}")
    factor = 1
    while max_atoms is not None and (n // factor) ** d > max_atoms:
        factor *= 2
    return factor


def grid_to_measure(rho: GridField, max_atoms: Optional[int] = None) -> DiscreteMeasure:
    """Atoms at grid nodes weighted by cell mass, optionally block-coarsened."""
    if rho.values.min() < -1e-12:
        raise ValueError("negative density cells")
    vals = np.maximum(rho.values, 0.0)
    n, d = rho.n, rho.d
    factor = coarsening_factor(n, d, max_atoms)
    if n % factor:
        raise ValueError(f"grid size {n} not divisible by coarsening factor {factor}")
    x = np.arange(n) / n
    if d == 1:
        if factor == 1:
            pts = x[:, None]
            w = vals.copy()
        else:
            blocks = vals.reshape(n // factor, factor)
            w = blocks.sum(axis=1)
            centers = (x.reshape(n // factor, factor) * blocks).sum(axis=1)
            with np.errstate(invalid="ignore"):
                centers = np.where(w > 0, centers / np.where(w > 0, w, 1.0), 0.0)
            base = x.reshape(n // factor, factor)[:, 0] + 0.5 * (factor - 1) / n
            pts = np.where(w > 0, centers, base)[:, None]
    else:
        X, Y = np.meshgrid(x, x, indexing="ij")
        if factor == 1:
            pts = np.column_stack([X.ravel(), Y.ravel()])
            w = vals.ravel()
        else:
            nb = n // factor
            blocks = vals.reshape(nb, factor, nb, factor)
            w = blocks.sum(axis=(1, 3))
            cx = (X.reshape(nb, factor, nb, factor) * blocks).sum(axis=(1, 3))
            cy = (Y.reshape(nb, factor, nb, factor) * blocks).sum(axis=(1, 3))
            safe = np.where(w > 0, w, 1.0)
            bx = X.reshape(nb, factor, nb, factor)[:, 0, :, 0] + 0.5 * (factor - 1) / n
            by = Y.reshape(nb, factor, nb, factor)[:, 0, :, 0] + 0.5 * (factor - 1) / n
            cx = np.where(w > 0, cx / safe, bx)
            cy = np.where(w > 0, cy / safe, by)
            pts = np.column_stack([cx.ravel(), cy.ravel()])
            w = w.ravel()
    keep = w > 0
    w = w[keep]
    return DiscreteMeasure(points=pts[keep], weights=w / w.sum())
