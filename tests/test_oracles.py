import math

import numpy as np
import pytest

from torusdpa.fields import GridField, periodic_convolve
from torusdpa.kernels import make_mollifier
from torusdpa.oracles import brute_w2, fd_gradient, quad_convolve


class TestQuadConvolve:
    def test_constants(self):
        assert quad_convolve(lambda y: 1.0, lambda y: 1.0, 0.3) == pytest.approx(1.0)

    def test_gaussian_variance_addition(self):
        # narrow periodic gaussians: variances add under convolution
        s1, s2 = 0.03, 0.04

        def gauss(s):
            def f(y):
                r = ((y + 0.5) % 1.0) - 0.5
                return math.exp(-0.5 * r * r / s**2) / (s * math.sqrt(2 * math.pi))

            return f

        x = 0.05
        got = quad_convolve(gauss(s1), gauss(s2), x, tol=1e-12)
        s = math.hypot(s1, s2)
        expected = math.exp(-0.5 * x * x / s**2) / (s * math.sqrt(2 * math.pi))
        assert got == pytest.approx(expected, rel=1e-8)

    def test_matches_fft_convolution(self, rng):
        n = 2048
        fam = make_mollifier("compact-bump", 0.08, d=1, table_points=n)
        x = np.arange(n) / n
        fvals = 1.0 + 0.5 * np.sin(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x)
        conv = periodic_convolve(GridField(fvals), fam)
        width = fam.profile_width
        norm = fam.table.mass()  # 1 by construction

        def f_callable(y):
            return 1.0 + 0.5 * math.sin(2 * math.pi * y) + 0.2 * math.cos(4 * math.pi * y)

        # independent normalization of the bump via quadrature
        from scipy.integrate import quad

        z = quad(lambda y: math.exp(-1.0 / (1.0 - (y / width) ** 2)) if abs(y) < width
                 else 0.0, -width, width, epsabs=1e-13)[0]

        def kernel_callable(y):
            r = abs(((y + 0.5) % 1.0) - 0.5)
            if r >= width:
                return 0.0
            return math.exp(-1.0 / (1.0 - (r / width) ** 2)) / z

        for i in rng.integers(0, n, size=20):
            got = quad_convolve(f_callable, kernel_callable, x[i], tol=1e-9)
            assert conv.values[i] == pytest.approx(got, abs=1e-5)


class TestFdGradient:
    def test_quadratic_exact(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])

        def f(p):
            return 0.5 * float(p @ A @ p)

        p0 = np.array([0.3, -0.7])
        g = fd_gradient(f, p0, h=1e-5)
        assert np.max(np.abs(g - A @ p0)) <= 1e-10

    def test_plain_central_order_two(self):
        def f(p):
            return math.sin(3.0 * p[0])

        p0 = np.array([0.4])
        exact = 3.0 * math.cos(1.2)

        def central(h):
            return (f(p0 + h) - f(p0 - h)) / (2 * h)

        errs = [abs(central(h) - exact) for h in (1e-3, 5e-4)]
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(2.0, abs=0.1)

    def test_richardson_beats_central(self):
        def f(p):
            return math.exp(math.sin(2.0 * p[0]))

        p0 = np.array([0.2])
        exact = 2.0 * math.cos(0.4) * math.exp(math.sin(0.4))
        rich = fd_gradient(f, p0, h=1e-3)[0]
        central = (f(p0 + 1e-3) - f(p0 - 1e-3)) / 2e-3
        assert abs(rich - exact) < abs(central - exact)


class TestBruteW2:
    def test_diracs_and_wrap(self):
        assert brute_w2([[0.1]], [[0.3]]) == pytest.approx(0.2)
        assert brute_w2([[0.1]], [[0.8]]) == pytest.approx(0.3)

    def test_size_cap(self, rng):
        X = rng.random((9, 1))
        with pytest.raises(ValueError):
            brute_w2(X, X)

    def test_permutation_optimality(self, rng):
        # swapping two atoms of mu must not change the distance
        X = rng.random((5, 1))
        Y = rng.random((5, 1))
        Xs = X.copy()
        Xs[[0, 1]] = Xs[[1, 0]]
        assert brute_w2(X, Y) == pytest.approx(brute_w2(Xs, Y), abs=1e-15)
