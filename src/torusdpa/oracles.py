"""Brute-force oracles for the test suite.

These deliberately share no convolution, interpolation, or transport code
with the production modules: convolutions are adaptive quadrature of
callables, gradients are Richardson-extrapolated central differences, and
tiny transport problems are exhaustive over assignments.  The one exception
is the particle pair-sum reference, which evaluates the kernel tables
through KernelTable.grad_at / value_at on the full N x N displacement array:
what it checks is the tiling and symmetric accumulation of the production
pair sums, not the interpolation.  Never used on hot paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad

__all__ = [
    "quad_convolve",
    "fd_gradient",
    "fd_second_derivative",
    "brute_w2",
    "bump_profile",
    "gaussian_profile",
    "direct_convolve_table",
    "direct_double_sum",
    "direct_pair_sum",
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


def fd_second_derivative(fn, x: float, h: float = 1e-4) -> float:
    """Central second difference of a scalar callable."""
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / h**2


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


# -- closed-form profiles (restated here, independent of the kernel factory) --


def bump_profile(width: float):
    """Unnormalized mollifier bump of the given support radius, as a callable."""

    def f(y):
        r = abs(((y + 0.5) % 1.0) - 0.5) / width
        if r >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - r * r))

    return f


def gaussian_profile(sigma: float, cut: float):
    """Unnormalized truncated Gaussian on the circle, as a callable."""

    def f(y):
        r = abs(((y + 0.5) % 1.0) - 0.5)
        if r > cut:
            return 0.0
        return math.exp(-0.5 * r * r / sigma**2)

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
    """Dissipation double sum via explicit python loops (1-d oracle)."""
    n = f_vals.size
    h = 1.0 / n
    total = 0.0
    for s in range(n):
        w = w_vals[s]
        if w == 0.0:
            continue
        shifted = np.roll(f_vals, s)
        total += w * float(((f_vals - shifted) ** 2).sum())
    return total * h * h / epsilon**2


def direct_pair_sum(positions, table, gradient: bool = True, weights=None) -> np.ndarray:
    """sum_j w_j T(X_i - X_j) for every i, from the full N x N displacement
    array (no tiling, no symmetry).  Gradient sums are (N, d), value sums (N,)."""
    X = np.atleast_2d(np.asarray(positions, dtype=float))
    N, d = X.shape
    r = X[:, None, :] - X[None, :, :]
    delta = (r - np.ceil(r - 0.5)).reshape(-1, d)
    if gradient:
        terms = table.grad_at(delta).reshape(N, N, d)
    else:
        terms = table.value_at(delta).reshape(N, N, 1)
    if weights is not None:
        terms = terms * np.asarray(weights, dtype=float)[None, :, None]
    out = terms.sum(axis=1)
    return out if gradient else out[:, 0]
