"""Kernels, target signals, data synthesis and the noise model."""
import numpy as np
import pytest

from graphtik.discretization import Grid
from graphtik.errors import ParameterError, UnsupportedProblemError
from graphtik.metrics import max_abs_error
from graphtik.problems import (
    EXAMPLES,
    NoiseModel,
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
    for eps in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="epsilon"):
            NoiseModel(eps, seed=0)


def test_eigenvalue_laws():
    lam, delta = EXAMPLES[2].problem.eigenvalue_law(np.array([1, 2]))
    np.testing.assert_allclose(delta, [np.pi**2 - 1.0, 4.0 * np.pi**2 - 1.0], rtol=1e-15)
    np.testing.assert_allclose(lam * delta, 1.0, rtol=1e-15)
    x = np.array([0.1, 0.9])
    np.testing.assert_array_equal(EXAMPLES[1].problem.potential(x), [0.0, 0.0])
    np.testing.assert_array_equal(EXAMPLES[2].problem.potential(x), [-1.0, -1.0])
