"""Brute-force oracles for the test suite.

These deliberately share no convolution, interpolation, or transport code
with the production modules: convolutions are adaptive quadrature of
callables, gradients are Richardson-extrapolated central differences,
tiny transport problems are exhaustive over assignments and weighted ones
solve the dense transport LP, one variable per pair, particle sums
against a kernel spectrum are dense Fourier series over the kernel's lattice,
with no mesh and no transform, and a table's periodic cubic spline is scipy's
interpolating spline, built axis by axis.  Never used on hot paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import make_interp_spline
from scipy.optimize import linprog
from scipy.sparse import eye, kron, vstack

__all__ = [
    "quad_convolve",
    "fd_gradient",
    "brute_w2",
    "dense_lp_w2",
    "bump_profile",
    "direct_convolve_table",
    "direct_double_sum",
    "dense_fourier_sum",
    "dense_fourier_energy",
    "periodic_spline",
]


def quad_convolve(f, g, x: float, tol: float = 1e-10) -> float:
    """(f * g)(x) on the unit circle by adaptive quadrature of callables."""
    val, err = quad(lambda y: f(y) * g(x - y), 0.0, 1.0, epsabs=tol, epsrel=tol, limit=400)
    if err > max(tol, 1e-13 * abs(val)) * 50:
        raise RuntimeError(f"quad_convolve: tolerance {tol} unreachable (err {err:.2e})")
    return val


def fd_gradient(fn, point, h: float = 1e-5) -> np.ndarray:
    """Richardson-extrapolated central differences of a scalar function."""
    point = np.asarray(point, dtype=float)
    out = np.zeros_like(point)
    flat = point.ravel()
    res = out.ravel()
    for i in range(flat.size):
        res[i] = _richardson_diff(fn, point, i, h)
    return out


def _richardson_diff(fn, point, i, h):
    def central(step):
        p = point.copy()
        p.ravel()[i] += step
        fp = fn(p)
        p = point.copy()
        p.ravel()[i] -= step
        fm = fn(p)
        return (fp - fm) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def brute_w2(mu_points, nu_points) -> float:
    """Exact W2 between tiny equal-weight atom sets by full enumeration."""
    X = np.atleast_2d(np.asarray(mu_points, dtype=float))
    Y = np.atleast_2d(np.asarray(nu_points, dtype=float))
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValueError("brute_w2 needs equal atom counts")
    if n > 8:
        raise ValueError("brute_w2 capped at 8 atoms")
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            c = 0.0
            for ax in range(X.shape[1]):
                r = X[i, ax] - Y[j, ax]
                r -= math.ceil(r - 0.5)
                c += r * r
            total += c
        best = min(best, total / n)
    return math.sqrt(best)


def dense_lp_w2(mu_points, mu_weights, nu_points, nu_weights) -> float:
    """Exact W2 between weighted atom sets by HiGHS on the dense transport
    LP, one variable per pair, with primal and dual feasibility tolerances
    of 1e-10 (at the default 1e-7 the LP stops measurably above the optimum)."""
    X = np.atleast_2d(np.asarray(mu_points, dtype=float))
    Y = np.atleast_2d(np.asarray(nu_points, dtype=float))
    r = X[:, None, :] - Y[None, :, :]
    r -= np.round(r)
    C = np.sum(r * r, axis=-1)
    n, m = C.shape
    # row sums, then every column sum but the last, which they imply
    A = vstack([kron(eye(n), np.ones((1, m))), kron(np.ones((1, n)), eye(m), format="csr")[:-1]])
    b = np.concatenate([mu_weights, nu_weights[:-1]])
    res = linprog(C.ravel(), A_eq=A.tocsr(), b_eq=b, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"dense transport LP failed: {res.message}")
    return math.sqrt(max(res.fun, 0.0))


# -- closed-form profiles (restated here, independent of the kernel factory) --


def bump_profile(width: float):
    """Unnormalized mollifier bump of the given support radius, as a callable."""

    def f(y):
        r = abs(((y + 0.5) % 1.0) - 0.5) / width
        if r >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - r * r))

    return f


def direct_convolve_table(f_vals: np.ndarray, g_vals: np.ndarray) -> np.ndarray:
    """Circular convolution of tables by direct (roll-based) summation."""
    n = f_vals.size
    h = 1.0 / n
    out = np.zeros(n)
    for s in range(n):
        if g_vals[s] != 0.0:
            out += g_vals[s] * np.roll(f_vals, s)
    return out * h


def direct_double_sum(f_vals: np.ndarray, w_vals: np.ndarray, epsilon: float) -> float:
    """Dissipation double sum  sum_s w(s) h^d sum_x (f(x) - f(x - s))^2 h^d / eps^2
    by an explicit loop over the shifts s (d = 1 or 2)."""
    n, d = f_vals.shape[0], f_vals.ndim
    axes = tuple(range(d))
    total = 0.0
    for s in itertools.product(range(n), repeat=d):
        w = w_vals[s]
        if w == 0.0:
            continue
        shifted = np.roll(f_vals, s, axis=axes)
        total += w * float(((f_vals - shifted) ** 2).sum())
    return total * (1.0 / n) ** (2 * d) / epsilon**2


def _dense_coefficients(X, spec, n, weights):
    """Per-axis phases exp(-2 pi i k x) of the particles on the half-spectrum
    lattice of the n^d grid, the weighted measure's coefficients there, and
    the mirror weights: each last-axis column but k = 0 stands for itself and
    its conjugate, and for even n a mode with a Nyquist component |k_i| = n/2
    weighs 0, since a real table's Nyquist mode has no unique continuation
    between the nodes."""
    N, d = X.shape
    full = np.concatenate([np.arange((n + 1) // 2), np.arange(-(n // 2), 0)]).astype(float)
    last = np.arange(n // 2 + 1, dtype=float)
    ks = [last] if d == 1 else [full, last]
    phases = [np.exp(-2j * np.pi * X[:, ax, None] * k[None, :]) for ax, k in enumerate(ks)]
    w = np.ones(N) if weights is None else np.asarray(weights, dtype=float)
    if d == 1:
        coeffs = w @ phases[0]
    else:
        coeffs = (w[:, None] * phases[0]).T @ phases[1]
    mirror = np.full(last.size, 2.0)
    mirror[0] = 1.0
    if n % 2 == 0:
        mirror[-1] = 0.0
        if d == 2:
            mirror = np.where(np.abs(full)[:, None] == n / 2, 0.0, mirror[None, :])
    return ks, phases, coeffs, mirror


def dense_fourier_sum(positions, spec, n, weights=None, gradient=True) -> np.ndarray:
    """sum_j w_j K(X_i - X_j) for every i, or with gradient its gradient, for
    the kernel K(x) = sum_k spec(k) exp(2 pi i k.x) whose half spectrum on
    the n^d lattice is spec, summed densely over the lattice below Nyquist.
    Gradient sums are (N, d), value sums (N,)."""
    X = np.atleast_2d(np.asarray(positions, dtype=float))
    d = X.shape[1]
    ks, phases, coeffs, mirror = _dense_coefficients(X, spec, n, weights)
    conj = [p.conj() for p in phases]

    def evaluate(c):
        c = c * mirror
        if d == 1:
            return (conj[0] @ c).real
        return ((conj[0] @ c) * conj[1]).sum(axis=1).real

    c = np.broadcast_to(spec, coeffs.shape) * coeffs
    if not gradient:
        return evaluate(c)
    grads = []
    for ax, k in enumerate(ks):
        shape = [1] * d
        shape[ax] = k.size
        grads.append(evaluate(2j * np.pi * k.reshape(shape) * c))
    return np.stack(grads, axis=-1)


def dense_fourier_energy(positions, spec, n) -> float:
    """(1/(2N^2)) sum_ij K(X_i - X_j) = (1/2) sum_k spec(k) |mu_hat(k)|^2 over
    the n^d lattice below Nyquist, with mu_hat the empirical measure's
    coefficients."""
    X = np.atleast_2d(np.asarray(positions, dtype=float))
    N = X.shape[0]
    _, _, coeffs, mirror = _dense_coefficients(X, spec, n, np.full(N, 1.0 / N))
    return 0.5 * float((mirror * np.broadcast_to(spec, coeffs.shape) * np.abs(coeffs) ** 2).sum())


def periodic_spline(values, points, gradient=False) -> np.ndarray:
    """The periodic cubic spline through the n^d table values (node j at j/n)
    at points (N, d), or with gradient its gradient (N, d), by scipy's
    make_interp_spline along the last axis and then, per point, along the
    first (the tensor-product spline is separable)."""
    X = np.atleast_2d(np.asarray(points, dtype=float)) % 1.0
    n, d = np.shape(values)[0], np.ndim(values)
    diag = np.arange(X.shape[0])

    def spline(table, axis):  # periodic along axis, the table closed at x = 1
        closed = np.concatenate([table, np.take(table, [0], axis=axis)], axis=axis)
        return make_interp_spline(np.arange(n + 1) / n, closed, k=3, bc_type="periodic",
                                  axis=axis)

    def at(nu):  # the derivative of order nu[i] along axis i, per point
        if d == 1:
            return spline(values, 0)(X[:, 0], nu=nu[0])
        # the rows at each point's second coordinate are (n, N); their spline
        # along the first axis at the first coordinates is (N, N), point p at (p, p)
        return spline(spline(values, 1)(X[:, 1], nu=nu[1]), 0)(X[:, 0], nu=nu[0])[diag, diag]

    if not gradient:
        return at((0, 0))
    return np.stack([at(np.eye(2, dtype=int)[i]) for i in range(d)], axis=-1)
