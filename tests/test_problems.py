"""Kernels, target signals, data synthesis and the noise model."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtik.discretization import Grid
from graphtik.errors import ParameterError, ToleranceError, UnsupportedProblemError
from graphtik.metrics import max_abs_error
from graphtik.problems import (
    _QUAD_TOL,
    EXAMPLES,
    NoiseModel,
    _f1,
    add_noise,
    get_example,
    get_test_function,
    synthesize_data,
)


def test_f1_center_value():
    # at x = 1/2: p1 = 1/4, p2 = 0, p3 = 2/p1^2 = 32, exponent 4 - 4 = 0
    assert get_test_function(1).eval(0.5) == -32.0


def test_f1_support():
    assert get_test_function(1).eval(0.0) == 0.0
    assert get_test_function(1).eval(1.0) == 0.0
    assert get_test_function(1).eval(-2.0) == 0.0
    x = np.linspace(0.02, 0.98, 49)
    assert np.all(np.isfinite(get_test_function(1).eval(x)))


def test_f1_is_second_derivative_of_bump():
    # f1 = (exp(4 - 1/p1))'' on the support; check by central differences
    def bump(x):
        p1 = 0.25 - (x - 0.5) ** 2
        return np.exp(4.0 - 1.0 / p1)

    h = 1e-5
    for x in (0.3, 0.5, 0.62):
        dd = (bump(x + h) - 2.0 * bump(x) + bump(x - h)) / h**2
        np.testing.assert_allclose(dd, get_test_function(1).eval(x), rtol=1e-4)


def _f1_masked(x):
    """f1 by masked assignment on a 1-d array: the reference _f1 must match."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p1 = 0.25 - (x - 0.5) ** 2
    out = np.zeros_like(x)
    ok = p1 > 0.0
    inv = np.zeros_like(x)
    inv[ok] = 1.0 / p1[ok]
    ok &= inv < 700.0
    p2 = 2.0 * (x - 0.5) * inv**2
    p3 = 2.0 * inv**2 + 8.0 * (x - 0.5) ** 2 * inv**3
    val = (p2**2 - p3) * np.exp(np.where(ok, 4.0 - inv, 0.0))
    out[ok] = val[ok]
    return out


# the support ends where 1/p1 = 700, i.e. at 1/2 -+ sqrt(1/4 - 1/700)
_F1_CUTOFF = 0.5 - np.sqrt(0.25 - 1.0 / 700.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, _F1_CUTOFF, 1.0 - _F1_CUTOFF]),
            st.floats(-10.0, 11.0),
            st.floats(_F1_CUTOFF, 1.0 - _F1_CUTOFF),  # inside the support
            st.floats(_F1_CUTOFF - 1e-6, _F1_CUTOFF + 1e-6),
            st.floats(1.0 - _F1_CUTOFF - 1e-6, 1.0 - _F1_CUTOFF + 1e-6),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_f1_scalar_and_array_paths_agree_bitwise(xs):
    x = np.array(xs)
    got = _f1(x)
    want = _f1_masked(x)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for xi, gi in zip(xs, got):
        si = _f1(xi)
        assert np.ndim(si) == 0
        assert si == gi and np.signbit(si) == np.signbit(gi)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_f1_scalar_path_matches_array_on_dense_sample():
    # a libm pow in place of a product moves about one value in 2000, and
    # libm exp in place of numpy's about one in 20
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(0.0, 1.0, 10001), rng.uniform(0.0, 1.0, 10000)])
    got = _f1(x)
    assert _same_bits(got, _f1_masked(x))
    points = x.tolist()  # Python floats, which take the point path
    assert len(points) == 20001 and all(type(t) is float for t in points)
    assert _same_bits([_f1(t) for t in points], got)


@pytest.mark.parametrize("ex_id", [1, 2])
def test_f1_point_path_matches_array_at_quadrature_abscissae(ex_id):
    # every point quad asks f1 for in the n = 100 data, one call at a time
    points = []

    def recorded(y):
        points.append(y)
        return _f1(y)

    synthesize_data(get_example(ex_id), recorded, Grid(100, "interior"))
    assert len(points) > 10000 and all(type(y) is float for y in points)
    assert _same_bits([_f1(y) for y in points], _f1(np.array(points)))


def test_f2_values():
    assert get_test_function(2).eval(0.0) == 0.0
    np.testing.assert_allclose(get_test_function(2).eval(1.0), -1.0 / 6.0, rtol=1e-15)
    np.testing.assert_allclose(get_test_function(2).eval(0.5), -1.0 / 12.0, rtol=1e-15)
    # stationary endpoints: f2' = x^2 - x
    h = 1e-7
    assert abs(get_test_function(2).eval(h) / h) < 1e-5
    assert abs((get_test_function(2).eval(1.0) - get_test_function(2).eval(1.0 - h)) / h) < 1e-5


def test_f3_f4():
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(get_test_function(3).eval(x), x)
    np.testing.assert_array_equal(get_test_function(4).eval(x), np.exp(x))


def test_unknown_ids():
    with pytest.raises(ParameterError):
        get_test_function(5)
    with pytest.raises(ParameterError):
        get_example(3)


def test_kernels_pointwise():
    h1 = EXAMPLES[1].problem.kernel
    assert h1(0.3, 0.1) == pytest.approx(0.1 * (0.3 - 1.0))
    assert h1(0.1, 0.3) == pytest.approx(0.1 * (0.3 - 1.0))  # symmetric
    h2 = EXAMPLES[2].problem.kernel
    want = np.sin(0.25) * np.sin(1.0 - 0.75) / np.sin(1.0)
    assert h2(0.25, 0.75) == pytest.approx(want)
    assert h2(0.75, 0.25) == pytest.approx(want)
    # the kernels derived from the factors, on a grid that includes y = x
    t = np.linspace(0.0, 1.0, 11)
    x, y = t[:, None], t[None, :]
    want1 = np.where(y <= x, y * (x - 1.0), x * (y - 1.0))
    np.testing.assert_array_equal(EXAMPLES[1].problem.kernel(x, y), want1)
    want2 = np.where(y <= x, np.sin(1.0 - x) * np.sin(y), np.sin(x) * np.sin(1.0 - y)) / np.sin(1.0)
    np.testing.assert_allclose(EXAMPLES[2].problem.kernel(x, y), want2, rtol=1e-15, atol=0)


def test_example_orientation_signs():
    # first kernel is negative inside the square, second positive
    x = np.array([0.2, 0.5, 0.8])
    assert np.all(EXAMPLES[1].problem.kernel(x[:, None], x[None, :]) < 0.0)
    assert np.all(EXAMPLES[2].problem.kernel(x[:, None], x[None, :]) > 0.0)
    assert EXAMPLES[1].green_sign == -1.0
    assert EXAMPLES[2].green_sign == 1.0


def test_quadrature_matches_closed_forms():
    grid = Grid(7, "interior")
    for ex_id, fid, tol in ((1, 1, 1e-9), (1, 2, 1e-10), (1, 3, 1e-10), (2, 3, 1e-10)):
        ex = get_example(ex_id)
        f = get_test_function(fid)
        gq = synthesize_data(ex, f, grid, "quadrature")
        ga = synthesize_data(ex, f, grid, "analytic")
        assert max_abs_error(gq, ga) < tol


def test_quadrature_constant_source():
    # int_0^1 y(x-1) dy + int over y > x of x(y-1) dy collapses to x(x-1)/2
    g = synthesize_data(get_example(1), lambda y: 1.0, Grid(1, "interior"))
    np.testing.assert_allclose(g, [-0.125], atol=1e-12)


def _definition_data(ex, f, grid):
    """The data by the definition: quadrature of h(x_i, y) f(y) with the
    kernel evaluated through ContinuousProblem.kernel."""
    from scipy.integrate import quad

    h = ex.problem.kernel
    f = getattr(f, "eval", f)
    g = np.empty(grid.n)
    for i, xi in enumerate(grid.nodes):
        g[i] = quad(
            lambda y: float(h(xi, y)) * float(f(y)),
            0.0,
            1.0,
            points=[xi] if 0.0 < xi < 1.0 else None,
            limit=200,
            epsabs=_QUAD_TOL,
            epsrel=_QUAD_TOL,
        )[0]
    return g


def _smooth(y):
    return np.cos(3.0 * y) + y * y


@pytest.mark.parametrize(
    "ex_id, n, f",
    [(ex_id, n, f) for ex_id in (1, 2) for n in (1, 2, 7) for f in (1, 2, 3, 4, _smooth)]
    # table 4's graph RRE is decided by roundoff in exactly these data
    + [(1, 100, 1)],
)
def test_quadrature_matches_definition_bitwise(ex_id, n, f):
    ex = get_example(ex_id)
    f = get_test_function(f) if isinstance(f, int) else f
    grid = Grid(n, "interior")
    assert np.array_equal(synthesize_data(ex, f, grid), _definition_data(ex, f, grid))


@pytest.mark.parametrize(
    "f",
    [lambda y: np.nan, lambda y: np.inf, lambda y: 1.0 / (y - 0.5) ** 2],
    ids=["nan", "inf", "pole"],
)
@pytest.mark.parametrize("ex_id", [1, 2])
def test_quadrature_failures_are_typed(ex_id, f):
    with pytest.raises(ToleranceError, match="quadrature"):
        synthesize_data(get_example(ex_id), f, Grid(3, "interior"))


_SCIPY_IMPORTS = """
import sys
sys.path.insert(0, {src!r})

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import numpy as np
import graphtik
from graphtik import experiments as E
from graphtik.discretization import DiscreteOperator, Grid
from graphtik.regularization import TikhonovPencil, TikhonovProblem, tikhonov_solve

assert scipy_modules() == [], scipy_modules()
for n in (2, 3, 101):
    for method in ("graph", "galerkin"):
        E.discrete_spectrum(2, n, method)
        E.forward_image_error(2, n, 3, method)
        E.diagnostic_matrix(2, n, method)
E.emit_figure_data(1)
assert scipy_modules() == [], scipy_modules()

n = 9
rng = np.random.default_rng(0)
K = np.eye(n) + 0.1 * rng.standard_normal((n, n))
p = TikhonovProblem(
    TikhonovPencil(DiscreteOperator(K, Grid(n), "derived"), DiscreteOperator(np.eye(n), Grid(n), "penalty")),
    rng.standard_normal(n),
)
f = tikhonov_solve(p, 1.0)
assert "scipy.linalg" in sys.modules and "scipy.integrate" not in sys.modules
import scipy.linalg as sla
M = p.pencil._KtK + p.pencil._AtA
want = sla.cho_solve(sla.cho_factor(M, check_finite=False), p._Ktg, check_finite=False)
assert f.tobytes() == want.tobytes(), (f, want)
print("ok")
"""


def test_import_leaves_quadrature_module_unloaded():
    # scipy.integrate (and the scipy.optimize it pulls in) is imported only
    # by the quadrature branch of synthesize_data, and scipy.linalg only by
    # the Cholesky fallback of the Tikhonov solve, for its triangular
    # solves: importing the package and the spectral path (tables 1-3,
    # figure 1) load no scipy module, and the fallback keeps the bits of
    # scipy's cho_factor/cho_solve
    code = _SCIPY_IMPORTS.format(src=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_analytic_mode_requires_registration():
    grid = Grid(3, "interior")
    with pytest.raises(UnsupportedProblemError):
        synthesize_data(get_example(2), get_test_function(1), grid, "analytic")
    with pytest.raises(UnsupportedProblemError):
        synthesize_data(get_example(1), lambda y: y, grid, "analytic")
    with pytest.raises(ParameterError):
        synthesize_data(get_example(1), get_test_function(1), grid, "midpoint")


def test_noise_exact_relative_level():
    rng = np.random.default_rng(0)
    g = rng.standard_normal(50)
    for eps in (0.01, 0.1):
        ge = add_noise(g, NoiseModel(eps, seed=3))
        np.testing.assert_allclose(
            np.linalg.norm(ge - g) / np.linalg.norm(g), eps, rtol=1e-12
        )


def test_noise_deterministic_in_seed():
    g = np.ones(20)
    a = add_noise(g, NoiseModel(0.05, seed=7))
    b = add_noise(g, NoiseModel(0.05, seed=7))
    c = add_noise(g, NoiseModel(0.05, seed=8))
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_noise_zero_epsilon_copies():
    g = np.arange(4.0)
    ge = add_noise(g, NoiseModel(0.0, seed=1))
    np.testing.assert_array_equal(ge, g)
    assert ge is not g
    for eps in (-0.1, float("nan"), float("inf"), 10**400, "0.1"):
        with pytest.raises(ParameterError, match="epsilon"):
            NoiseModel(eps, seed=0)


def test_eigenvalue_laws():
    lam, delta = EXAMPLES[2].problem.eigenvalue_law(np.array([1, 2]))
    np.testing.assert_allclose(delta, [np.pi**2 - 1.0, 4.0 * np.pi**2 - 1.0], rtol=1e-15)
    np.testing.assert_allclose(lam * delta, 1.0, rtol=1e-15)
    x = np.array([0.1, 0.9])
    np.testing.assert_array_equal(EXAMPLES[1].problem.potential(x), [0.0, 0.0])
    np.testing.assert_array_equal(EXAMPLES[2].problem.potential(x), [-1.0, -1.0])
