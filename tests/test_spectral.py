"""Property tests of the real-FFT spectral layer against plain complex
np.fft.fftn references on full grids, odd sizes included."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusdpa.spectral as spectral
from torusdpa.fields import GridField, periodic_convolve
from torusdpa.geometry import min_image
from torusdpa.kernels import KernelTable
from torusdpa.spectral import (
    TAIL_TOL,
    ParticleMesh,
    Stencil,
    column_weights,
    face_grad_multipliers,
    forward_transform,
    gather,
    grad_multipliers,
    gradient,
    inner,
    inverse_transform,
    k_squared,
    minimage_coords,
    spline_stencil,
    spread,
    tail_cutoff,
)

grids = st.tuples(st.sampled_from([1, 2]), st.integers(3, 64), st.integers(0, 2**32 - 1))
PROPERTY = settings(max_examples=60, deadline=None)


def draw(d, n, seed, count=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n,) * d) for _ in range(count)]


def full_lattice(n, d):
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.meshgrid(*([k] * d), indexing="ij")


def close(got, want, scale=1.0):
    assert np.max(np.abs(got - want)) <= 1e-12 * scale * (1.0 + np.max(np.abs(want)))


@PROPERTY
@given(grids)
def test_forward_is_half_of_complex_transform(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    full = np.fft.fftn(f) / n**d
    half = forward_transform(f)
    assert half.shape == (n,) * (d - 1) + (n // 2 + 1,)
    close(half, full[..., : n // 2 + 1])


@PROPERTY
@given(grids)
def test_round_trip(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    close(inverse_transform(forward_transform(f), n), f)


@PROPERTY
@given(grids)
def test_convolution(grid):
    d, n, seed = grid
    f, g = draw(d, n, seed, 2)
    want = np.real(np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(g))) / n**d
    close(periodic_convolve(GridField(f), KernelTable(g)).values, want)


@PROPERTY
@given(grids)
def test_gradient_with_nyquist_zeroed(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    fhat = np.fft.fftn(f)
    got = gradient(forward_transform(f), n)
    for k, g in zip(full_lattice(n, d), got):
        mult = np.where(np.abs(k) == n / 2, 0.0, 2j * np.pi * k)
        close(g, np.real(np.fft.ifftn(mult * fhat)), scale=n)


@PROPERTY
@given(grids)
def test_face_gradient_is_half_cell_shift(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    fhat = np.fft.fftn(f)
    for k, face in zip(full_lattice(n, d), face_grad_multipliers(n, d)):
        mult = np.where(np.abs(k) == n / 2, 0.0, 2j * np.pi * k * np.exp(1j * np.pi * k / n))
        got = inverse_transform(face * forward_transform(f), n)
        close(got, np.real(np.fft.ifftn(mult * fhat)), scale=n)


def test_multipliers_memoised_read_only():
    for multipliers in (grad_multipliers, face_grad_multipliers):
        mults = multipliers(16, 2)
        assert multipliers(16, 2) is mults
        for m in mults:
            with pytest.raises(ValueError):
                m[...] = 0
    w = column_weights(16)
    assert column_weights(16) is w
    with pytest.raises(ValueError):
        w[...] = 0


@pytest.mark.parametrize("d, n", [(d, n) for d in (1, 2) for n in (8, 128, 512, 384)]
                         + [(1, 2430)])
def test_transforms_fold_the_scaling_into_the_fft(d, n):
    # h^d * rfftn and n^d * irfftn, the scaling inside the FFT call: bitwise
    # on power-of-two grids, where the scale factors are exact, and to
    # roundoff on the others (2430 is the default 1-d particle mesh)
    rng = np.random.default_rng(n + d)
    f = rng.standard_normal((n,) * d)
    got, want = forward_transform(f), (1.0 / n) ** d * np.fft.rfftn(f)
    back = inverse_transform(got, n)
    back_want = n**d * np.fft.irfftn(got, s=(n,) * d, axes=tuple(range(d)))
    if n & (n - 1) == 0:
        assert np.array_equal(got, want)
        assert np.array_equal(back, back_want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(back - back_want)) <= 1e-15 * np.max(np.abs(back_want))


@pytest.mark.parametrize("d, n", [(1, 1080), (1, 2430), (2, 128), (2, 135), (2, 384)])
def test_a_transform_is_one_numpy_call_per_axis(count_transforms, d, n):
    # rfft then fft, and ifft then irfft: bit for bit numpy's rfftn and
    # irfftn, which run the same per-axis passes
    rng = np.random.default_rng(n + d)
    f = rng.standard_normal((n,) * d)
    calls = count_transforms
    spec = forward_transform(f)
    back = inverse_transform(spec, n)
    assert len(calls) == 2 * d
    axes = tuple(range(d))
    assert np.array_equal(spec, np.fft.rfftn(f, axes=axes, norm="forward"))
    assert np.array_equal(back, np.fft.irfftn(spec, s=(n,) * d, axes=axes, norm="forward"))


@pytest.mark.parametrize("d, n", [(2, 128), (2, 384), (2, 135), (1, 384)])
def test_pruned_transforms_are_the_full_ones_cropped(d, n):
    # the first-axis pass skips the columns a crop drops (or that are zero),
    # bit for bit, and so does a cols that keeps every column; the inverse
    # of a cut spectrum is that of the zero-padded one
    rng = np.random.default_rng(n + d)
    f = rng.standard_normal((n,) * d)
    full = forward_transform(f)
    for c in (1, n // 3 + 1, n // 4, n // 2 + 1):
        cols = forward_transform(f, c)
        assert cols.shape == full[..., :c].shape
        assert np.array_equal(cols, full[..., :c])
        padded = np.zeros_like(full)
        padded[..., :c] = full[..., :c]
        assert np.array_equal(inverse_transform(cols, n), inverse_transform(padded, n))


@pytest.mark.parametrize("d, n, k", [(1, 512, 2), (1, 135, 3), (2, 128, 4), (2, 135, 2),
                                     (2, 384, 3)])
def test_stacked_transforms_are_the_per_field_ones(count_transforms, d, n, k):
    # a leading axis stacks k fields: one numpy call per axis for all of
    # them, each bit for bit its own transform, whole or cut to its first
    # columns, and the inverse likewise, into a given array too
    rng = np.random.default_rng(n + d + k)
    f = rng.standard_normal((k,) + (n,) * d)
    for c in (None, n // 3 + 1):
        calls = count_transforms
        calls.clear()
        spec = forward_transform(f, c, d)
        back = inverse_transform(spec, n, d)
        into = np.empty_like(f)
        assert inverse_transform(spec, n, d, out=into) is into
        assert len(calls) == 3 * d
        for i in range(k):
            assert np.array_equal(spec[i], forward_transform(f[i], c))
            assert np.array_equal(back[i], inverse_transform(spec[i], n))
            assert np.array_equal(into[i], back[i])


@pytest.mark.parametrize("shape, d", [((16,), 1), ((16, 16), 2), ((3, 16, 16), 2)],
                         ids=["1d", "2d", "stacked"])
def test_inverse_transform_into_out_without_irfft_out(monkeypatch, shape, d):
    # numpy < 2 has no irfft(out=): the fallback copies into out, bit for bit
    # what numpy 2's irfft writes into the same array
    spec = forward_transform(np.random.default_rng(len(shape) + d).standard_normal(shape), d=d)
    into = np.full(shape, np.nan)
    want = inverse_transform(spec, 16, d, out=into).copy()
    monkeypatch.setattr(spectral, "_IRFFT_OUT", False)
    into[...] = np.nan
    assert inverse_transform(spec, 16, d, out=into) is into
    assert into.tobytes() == want.tobytes() == inverse_transform(spec, 16, d).tobytes()


@pytest.mark.parametrize("d, K", [(1, 40), (2, 30)])
def test_mesh_transforms_are_the_full_ones(d, K):
    # the particle mesh's pruned transforms against the full transform and a
    # crop to the box, and the box placed in the full half spectrum
    mesh = ParticleMesh(d, K)
    rng = np.random.default_rng(K)
    stencil = mesh.stencil(rng.random((50, d)))
    a = rng.standard_normal(50)
    mu = mesh.transform(stencil, a)
    assert np.array_equal(mu, spectral.downsample_spectrum(
        forward_transform(spread(stencil, a)), mesh.box))
    fine = mesh.fine
    padded = np.zeros((fine,) * (d - 1) + (fine // 2 + 1,), dtype=complex)
    if d == 1:
        padded[: K + 1] = mu
    else:
        padded[: K + 1, : K + 1] = mu[: K + 1]
        padded[fine - K :, : K + 1] = mu[K + 1 :]
    want = gather(stencil, inverse_transform(padded, fine)) * (1.0 / fine) ** d
    assert np.array_equal(mesh.values(stencil, mu), want)


def test_es_quadrature_is_computed_once(monkeypatch):
    # every mesh reads the same Gauss-Legendre nodes, computed on first use
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    spectral._es_quadrature.cache_clear()
    psi = [ParticleMesh(d, K)._deconv for d, K in ((1, 40), (2, 30), (1, 40))]
    assert calls == [4 * spectral.ES_WIDTH + 40]
    assert np.array_equal(psi[0], psi[2])
    z, wq = leggauss(4 * spectral.ES_WIDTH + 40)
    phi = np.exp(spectral.ES_BETA * (np.sqrt(1.0 - z * z) - 1.0)) * wq
    half = 0.5 * spectral.ES_WIDTH / 162
    want = half * np.cos((2.0 * np.pi * half) * np.arange(41)[:, None] * z) @ phi
    assert np.array_equal(spectral._es_transform(162, 40), want)


def test_tail_cutoff_weighs_columns_as_inner():
    # a Nyquist column just inside the tolerance at weight 1, outside at 2
    n = 16
    spec = np.zeros((n, n // 2 + 1))
    spec[0, 0] = 1.0
    spec[0, n // 2] = 0.75 * TAIL_TOL
    assert list(column_weights(n)) == [1.0] + [2.0] * (n // 2 - 1) + [1.0]
    assert tail_cutoff(spec, n) == 0


@PROPERTY
@given(grids)
def test_laplacian(grid):
    d, n, seed = grid
    (f,) = draw(d, n, seed)
    k2 = sum((2.0 * np.pi * k) ** 2 for k in full_lattice(n, d))
    want = np.real(np.fft.ifftn(-k2 * np.fft.fftn(f)))
    close(inverse_transform(-k_squared(n, d) * forward_transform(f), n), want, scale=n * n)


@PROPERTY
@given(grids)
def test_parseval(grid):
    d, n, seed = grid
    f, g = draw(d, n, seed, 2)
    want = float((f * g).sum()) / n**d
    got = inner(forward_transform(f), forward_transform(g), n)
    assert got == pytest.approx(want, abs=1e-12 * (1.0 + np.sqrt((f * f).sum() * (g * g).sum())))


@PROPERTY
@given(st.sampled_from(["es", "spline"]), st.sampled_from([1, 2]), st.integers(1, 60),
       st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_gather_is_the_transpose_of_spread(kernel, d, N, size, seed):
    # <spread(X, a), g> = <a, gather(X, g)>: the ES stencil of a mesh with
    # K = size (fine grid of 2(2K + 1) points or more), or the B-spline
    # stencil on a grid of size points (stencils may wrap onto themselves)
    rng = np.random.default_rng(seed)
    X = rng.random((N, d)) * 3.0 - 1.0  # wrapped by the stencils
    if kernel == "es":
        stencil = ParticleMesh(d, size).stencil(X)
    else:
        stencil = spline_stencil(X, size, d)
    a = rng.standard_normal(N)
    g = rng.standard_normal((stencil.n,) * d)
    lhs = float((spread(stencil, a) * g).sum())
    rhs = float(a @ gather(stencil, g))
    scale = np.abs(stencil.weight).sum(axis=1) @ np.abs(a) * np.abs(g).max()
    assert abs(lhs - rhs) <= 1e-13 * scale


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [8, 9])
def test_minimage_coords_broadcast_like_the_frequency_lattice(n, d):
    # one sparse array per axis, each the node coordinate's minimum image
    # against the origin, so in (-1/2, 1/2]
    xis = minimage_coords(n, d)
    nodes = np.meshgrid(*(np.arange(n) / n,) * d, indexing="ij")
    assert len(xis) == d
    for ax, xi in enumerate(xis):
        assert xi.shape == tuple(n if a == ax else 1 for a in range(d))
        assert np.array_equal(np.broadcast_to(xi, (n,) * d), min_image(nodes[ax], 0.0))


def test_stencil_is_the_tensor_product_of_its_axes():
    rng = np.random.default_rng(3)
    n, (i, j), (u, v) = 7, rng.integers(0, 7, (2, 5, 3)), rng.random((2, 5, 3))
    one = Stencil(n, [i], [u])
    assert one.index is i and one.weight is u  # 1-d: the axis arrays, no copy
    two = Stencil(n, [i, j], [u, v])
    assert np.array_equal(two.index, (i[:, :, None] * n + j[:, None, :]).reshape(5, 9))
    assert np.array_equal(two.weight, (u[:, :, None] * v[:, None, :]).reshape(5, 9))


def test_only_spectral_calls_the_fft():
    # the transform counters (count_transforms, the benchmark's tracer) patch
    # np.fft, so they are exact only while spectral.py is its one caller; the
    # word fft also catches numpy.fft and scipy.fft, imported or attributed
    package = Path(spectral.__file__).parent
    callers = [p.name for p in sorted(package.glob("*.py"))
               if p.name != "spectral.py" and re.search(r"\bfft\b", p.read_text())]
    assert callers == []


def test_only_transport_and_oracles_call_the_lp():
    # one transport layer: the exact solvers and the dense test reference
    package = Path(spectral.__file__).parent
    callers = [p.name for p in sorted(package.glob("*.py"))
               if re.search(r"\b(linprog|linear_sum_assignment)\b", p.read_text())]
    assert callers == ["oracles.py", "transport.py"]


def test_one_place_per_heavy_import():
    # scipy and pyyaml are imported where they are called, never at load time
    package = Path(spectral.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert [n for n, s in sources.items() if re.search(r"\bscipy\b", s)] == [
        "oracles.py", "transport.py"]
    assert [n for n, s in sources.items() if re.search(r"\byaml\b", s)] == ["harness.py"]

    def load_time_imports(node):
        # every module an import statement outside a function body names
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield from (alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                yield child.module or ""
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from load_time_imports(child)

    for name in ("transport.py", "harness.py"):
        imported = load_time_imports(ast.parse(sources[name]))
        assert [m for m in imported if m.split(".")[0] in ("scipy", "yaml")] == [], name


@pytest.mark.parametrize("call, fragment", [
    (lambda: spectral.freq_lattice(8, 3), "unsupported dimension 3"),
    (lambda: minimage_coords(8, 3), "unsupported dimension 3"),
    (lambda: spectral.downsample_spectrum(np.ones(5), 16), "target finer than source"),
    (lambda: spline_stencil(np.zeros((4, 2)), 8, 1), "expected points with 1 components"),
    (lambda: spline_stencil(np.zeros((4, 1)), 8, 2), "expected points with 2 components"),
], ids=["freq-lattice-d3", "minimage-d3", "downsample-finer", "stencil-2-in-1d",
        "stencil-1-in-2d"])
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
