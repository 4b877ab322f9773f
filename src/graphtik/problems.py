"""Benchmark problems: two Green-type kernels, four target signals, data
synthesis by quadrature or registered closed forms, and seeded noise.

Each kernel is given by its factors (u, v), h(x, y) = u(min(x, y)) v(max(x, y)).
Example 1 is the second-derivative model problem; its printed kernel is the
sign-flipped Green function of -u'' with zero boundary values, so the graph
forward operator carries green_sign = -1 to match the data orientation.
Example 2 is the Helmholtz-type operator -u'' - u, whose factors are sines;
there the kernel and the inverse-potential orientation agree.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discretization import ContinuousProblem, Grid
from .errors import ParameterError, ToleranceError, UnsupportedProblemError

__all__ = [
    "TestFunction",
    "ExampleProblem",
    "NoiseModel",
    "TEST_FUNCTIONS",
    "EXAMPLES",
    "get_example",
    "get_test_function",
    "synthesize_data",
    "add_noise",
]

_QUAD_TOL = 1e-12


def _f1(x):
    """Compactly supported bump derivative: [p2^2 - p3] * exp(4 - 1/p1).

    p1 = 1/4 - (x - 1/2)^2, p2 = d(1/p1)/dx, p3 = d(p2)/dx, which makes the
    whole thing (exp(4 - 1/p1))''.  Zero outside the support and wherever
    1/p1 >= 700, where the exponential is near its underflow.

    One mask-free evaluation serves arrays and 0-d input, which quadrature
    passes point by point.  A value keeps its bits on either path: squares
    are explicit products (the array loop squares, a numpy scalar's ``**``
    calls libm pow) and the cube and exponential stay numpy ufuncs.
    """
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
    try:
        return TEST_FUNCTIONS[int(fid)]
    except (KeyError, ValueError, TypeError):
        raise ParameterError(f"unknown test function id {fid!r}") from None


_FACTORS_EXAMPLE1 = (lambda t: t, lambda t: t - 1.0)
_FACTORS_EXAMPLE2 = (np.sin, lambda t: np.sin(1.0 - t) / np.sin(1.0))


def _law_const_q(c: float):
    # delta_m = m^2 pi^2 + c, lambda_m = 1/delta_m (magnitudes)
    def law(m):
        m = np.asarray(m, dtype=float)
        delta = m**2 * np.pi**2 + c
        return 1.0 / delta, delta

    return law


def _oracle_example1(fid: int, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if fid == 1:
        # f1 is the bump's second derivative, so blurring it with the
        # sign-flipped Green kernel gives back the bump itself
        p1 = 0.25 - (x - 0.5) ** 2
        u = np.zeros_like(x)
        ok = p1 > 0.0
        inv = np.zeros_like(x)
        inv[ok] = 1.0 / p1[ok]
        ok &= inv < 700.0
        u[ok] = np.exp(4.0 - inv[ok])
        return u
    if fid == 2:
        return -(x**4 / 24.0 - x**5 / 60.0 - x / 40.0)
    if fid == 3:
        return (x**3 - x) / 6.0
    raise KeyError(fid)


def _oracle_example2(fid: int, x):
    x = np.asarray(x, dtype=float)
    if fid == 3:
        return np.sin(x) / np.sin(1.0) - x
    raise KeyError(fid)


@dataclass(frozen=True)
class ExampleProblem:
    id: str
    problem: ContinuousProblem
    green_sign: float  # orientation of the printed kernel vs the inverse operator


EXAMPLES = {
    1: ExampleProblem(
        "example1",
        ContinuousProblem(
            factors=_FACTORS_EXAMPLE1,
            potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            eigenvalue_law=_law_const_q(0.0),
            forward_oracle=_oracle_example1,
        ),
        green_sign=-1.0,
    ),
    2: ExampleProblem(
        "example2",
        ContinuousProblem(
            factors=_FACTORS_EXAMPLE2,
            potential=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
            eigenvalue_law=_law_const_q(-1.0),
            forward_oracle=_oracle_example2,
        ),
        green_sign=1.0,
    ),
}


def get_example(example_id: int) -> ExampleProblem:
    try:
        return EXAMPLES[int(example_id)]
    except (KeyError, ValueError, TypeError):
        raise ParameterError(f"unknown example id {example_id!r}") from None


def synthesize_data(
    example: ExampleProblem,
    f_true,
    grid: Grid,
    mode: str = "quadrature",
) -> np.ndarray:
    """g_i = integral of h(x_i, y) f(y) over (0, 1) at every grid node.

    quadrature mode integrates adaptively with a breakpoint at y = x_i (the
    kernel kink) to tolerance 1e-12; analytic mode looks up a registered
    closed form, which exists only for some (example, f) pairs.  f_true may
    be a TestFunction or any callable.

    The integrand reads the kernel through its factors: u(x_i) and v(x_i)
    once per node, then one branch per point, v(x_i) u(y) below the kink
    and u(x_i) v(y) above it.  That is the value ``ContinuousProblem.kernel``
    gives, bit for bit, without its two-branch ``np.where``.
    """
    if mode not in ("quadrature", "analytic"):
        raise ParameterError(f"unknown data mode {mode!r}")
    x = grid.nodes
    if mode == "analytic":
        oracle = example.problem.forward_oracle
        fid = getattr(f_true, "id", None)
        if oracle is None or fid is None:
            raise UnsupportedProblemError("no closed-form image registered")
        try:
            return np.asarray(oracle(fid, x), dtype=float)
        except KeyError:
            raise UnsupportedProblemError(
                f"no closed-form image for f{fid} under {example.id}"
            ) from None
    # only this branch needs scipy.integrate, which pulls in scipy.optimize
    from scipy.integrate import IntegrationWarning, quad

    f = f_true.eval if isinstance(f_true, TestFunction) else f_true
    u, v = example.problem.factors
    g = np.empty(grid.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for i, xi in enumerate(x):
            pts = [xi] if 0.0 < xi < 1.0 else None
            ux, vx = u(xi), v(xi)
            try:
                val, abserr = quad(
                    lambda y: float(vx * u(y) if y < xi else ux * v(y)) * float(f(y)),
                    0.0,
                    1.0,
                    points=pts,
                    limit=200,
                    epsabs=_QUAD_TOL,
                    epsrel=_QUAD_TOL,
                )
            except IntegrationWarning as exc:
                raise ToleranceError(f"quadrature stalled at node x={xi:.6g}") from exc
            if not np.isfinite(val) or abserr > 1e-8:
                raise ToleranceError(
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
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ParameterError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")


def add_noise(g_n: np.ndarray, m: NoiseModel) -> np.ndarray:
    """g + epsilon * ||g|| * z / ||z|| with z drawn from the seeded generator."""
    g = np.asarray(g_n, dtype=float)
    if m.epsilon == 0.0:
        return g.copy()
    z = np.random.default_rng(m.seed).standard_normal(g.size)
    return g + m.epsilon * np.linalg.norm(g) * z / np.linalg.norm(z)
