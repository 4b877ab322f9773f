"""Benchmark problems: two Green-type kernels, four target signals, data
synthesis by quadrature or registered closed forms, and seeded noise.

Each example is one ``ContinuousProblem``: its kernel is given by its
factors (u, v), h(x, y) = u(min(x, y)) v(max(x, y)), and its inverse by a
constant potential c, stated once for both q = c and the eigenvalue law
1/(m^2 pi^2 + c).  Example 1 is the second-derivative model problem (c = 0);
its printed kernel is the sign-flipped Green function of -u'' with zero
boundary values, so it carries green_sign = -1 to match the data
orientation.  Example 2 is the Helmholtz-type operator -u'' - u (c = -1),
whose factors are sines; there the kernel and the inverse-potential
orientation agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretization import ContinuousProblem, Grid
from .errors import NumericalFailure, ParameterError, _finite, _finite_real, _is_int, _lookup

_QUAD_TOL = 1e-12
_DATA_MODES = ("quadrature", "analytic")  # of synthesize_data


def _f1(x):
    """Compactly supported bump derivative: [p2^2 - p3] * exp(4 - 1/p1).

    p1 = 1/4 - (x - 1/2)^2, p2 = d(1/p1)/dx, p3 = d(p2)/dx, which makes the
    whole thing (exp(4 - 1/p1))''.  Zero outside the support and wherever
    1/p1 >= 700, where the exponential is near its underflow.

    The array expression below is the definition.  A float, which is what
    quadrature passes point by point, takes the same operations in float
    arithmetic with the cutoff as a branch, so each step rounds as the array
    loop does; the cube and exponential stay numpy ufuncs, because libm's
    pow and exp round some arguments differently from numpy's loops.
    Squares are explicit products: the array loop squares, while a numpy
    scalar's ``**`` calls libm pow.
    """
    if isinstance(x, float):
        d = x - 0.5
        inv = 1.0 / max(0.25 - d * d, 1e-3)
        if not inv < 700.0:
            return 0.0
        p2 = 2.0 * d * (inv * inv)
        p3 = 2.0 * (inv * inv) + 8.0 * (d * d) * float(np.power(inv, 3))
        return (p2 * p2 - p3) * float(np.exp(4.0 - inv))
    x = np.asarray(x, dtype=float)
    d = x - 0.5
    p1 = 0.25 - d * d
    # 1/p1 >= 700 wherever p1 <= 1e-3, so clamping p1 there leaves the cutoff
    # and every value inside it alone, and keeps the dead branch finite
    inv = 1.0 / np.maximum(p1, 1e-3)
    p2 = 2.0 * d * (inv * inv)
    p3 = 2.0 * (inv * inv) + 8.0 * (d * d) * np.power(inv, 3)
    return np.where(inv < 700.0, (p2 * p2 - p3) * np.exp(4.0 - inv), 0.0)


def _f2(x):
    x = np.asarray(x, dtype=float)
    return x**3 / 3.0 - x**2 / 2.0


def _f3(x):
    return np.asarray(x, dtype=float)


def _f4(x):
    return np.exp(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TestFunction:
    id: int
    eval: Callable


TEST_FUNCTIONS = {
    1: TestFunction(1, _f1),
    2: TestFunction(2, _f2),
    3: TestFunction(3, _f3),
    4: TestFunction(4, _f4),
}


def get_test_function(fid: int) -> TestFunction:
    return _lookup(TEST_FUNCTIONS, "test function", fid)[1]


_FACTORS_EXAMPLE1 = (lambda t: t, lambda t: t - 1.0)
_SIN1 = np.sin(1.0)
_FACTORS_EXAMPLE2 = (np.sin, lambda t: np.sin(1.0 - t) / _SIN1)


def _constant_potential(c: float) -> dict:
    """The potential q = c and the eigenvalue law lambda_m = 1/(m^2 pi^2 + c)
    of the operator whose inverse is -d^2/dx^2 + c, zero at both ends."""
    return {
        "potential": lambda x: np.full_like(np.asarray(x, dtype=float), c),
        "eigenvalue_law": lambda m: 1.0 / (np.asarray(m, dtype=float) ** 2 * np.pi**2 + c),
    }


def _bump(x):
    """exp(4 - 1/p1), p1 = 1/4 - (x - 1/2)^2, zero outside the support and
    wherever 1/p1 >= 700: the image of f1 under example 1, since f1 is the
    bump's second derivative and the kernel is the sign-flipped Green
    function."""
    p1 = 0.25 - (x - 0.5) ** 2
    u = np.zeros_like(x)
    ok = p1 > 0.0
    inv = np.zeros_like(x)
    inv[ok] = 1.0 / p1[ok]
    ok &= inv < 700.0
    u[ok] = np.exp(4.0 - inv[ok])
    return u


_IMAGES_EXAMPLE1 = {
    1: _bump,
    2: lambda x: -(x**4 / 24.0 - x**5 / 60.0 - x / 40.0),
    3: lambda x: (x**3 - x) / 6.0,
}
_IMAGES_EXAMPLE2 = {3: lambda x: np.sin(x) / _SIN1 - x}

EXAMPLES = {
    1: ContinuousProblem(
        _FACTORS_EXAMPLE1, **_constant_potential(0.0), images=_IMAGES_EXAMPLE1,
        green_sign=-1.0, id="example1",
    ),
    2: ContinuousProblem(
        _FACTORS_EXAMPLE2, **_constant_potential(-1.0), images=_IMAGES_EXAMPLE2,
        green_sign=1.0, id="example2",
    ),
}


def get_example(example_id: int) -> ContinuousProblem:
    return _lookup(EXAMPLES, "example", example_id)[1]


def synthesize_data(
    example: ContinuousProblem,
    f_true,
    grid: Grid,
    mode: str = "quadrature",
) -> np.ndarray:
    """g_i = integral of h(x_i, y) f(y) over (0, 1) at every grid node.

    quadrature mode integrates adaptively with a breakpoint at y = x_i (the
    kernel kink) to tolerance 1e-12; analytic mode looks f's id up in the
    example's ``images``, which registers a closed form for some test
    functions only.  f_true may be a TestFunction or any callable.

    The integrand reads the kernel through its factors: u(x_i) and v(x_i)
    once per node, then one branch per point, v(x_i) u(y) below the kink
    and u(x_i) v(y) above it.  That is the value ``ContinuousProblem.kernel``
    gives, bit for bit, without its two-branch ``np.where``.

    A stall is QUADPACK's status, returned by ``quad``: with
    ``full_output`` it adds the status message as a fourth item for every
    nonzero code (subdivision limit, roundoff, bad integrand, divergence,
    abnormal termination), and the node raises ``NumericalFailure``; so
    does a value that is not finite or an error estimate above 1e-8.
    """
    if mode not in _DATA_MODES:
        raise ParameterError(f"unknown data mode {mode!r}")
    x = grid.nodes
    if mode == "analytic":
        fid = getattr(f_true, "id", None)
        if not example.images or fid is None:
            raise ParameterError("no closed-form image registered")
        if fid not in example.images:
            raise ParameterError(f"no closed-form image for f{fid} under {example.id}")
        return np.asarray(example.images[fid](x), dtype=float)
    # only this branch needs scipy.integrate, which pulls in scipy.optimize
    from scipy.integrate import quad

    f = f_true.eval if isinstance(f_true, TestFunction) else f_true
    u, v = example.factors
    g = np.empty(grid.n)
    for i, xi in enumerate(x):
        ux, vx = u(xi), v(xi)
        val, abserr, _info, *stalled = quad(
            lambda y: float(vx * u(y) if y < xi else ux * v(y)) * float(f(y)),
            0.0,
            1.0,
            points=[xi],
            limit=200,
            epsabs=_QUAD_TOL,
            epsrel=_QUAD_TOL,
            full_output=1,
        )
        if stalled:
            raise NumericalFailure(f"quadrature stalled at node x={xi:.6g}")
        if not np.isfinite(val) or abserr > 1e-8:
            raise NumericalFailure(
                f"quadrature error {abserr:.2e} at node x={xi:.6g}"
            )
        g[i] = val
    return g


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian perturbation rescaled to an exact relative level."""

    epsilon: float
    seed: int

    def __post_init__(self):
        if _finite_real("epsilon", self.epsilon) < 0.0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ParameterError(f"noise seed must be an integer >= 0, got {self.seed!r}")


def add_noise(g_n: np.ndarray, m: NoiseModel) -> np.ndarray:
    """g + epsilon * ||g|| * z / ||z|| with z drawn from the seeded generator,
    for a data vector g with finite entries."""
    g = _finite("data", g_n, (np.size(g_n),))
    if m.epsilon == 0.0:
        return g.copy()
    z = np.random.default_rng(m.seed).standard_normal(g.size)
    return g + m.epsilon * np.linalg.norm(g) * z / np.linalg.norm(z)
