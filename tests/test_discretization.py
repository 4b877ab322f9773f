"""Stencil, lattice operator, pseudoinverse, Galerkin matrix, spectra."""
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtik.discretization import (
    ContinuousProblem,
    DiscreteOperator,
    Grid,
    build_galerkin_operator,
    build_schrodinger_operator,
    continuous_eigenvalues,
    pseudo_inverse,
    toeplitz_stencil,
    _EvenOddSplit,
)
from graphtik.errors import (
    ContractViolationError,
    EvaluationError,
    ParameterError,
    UnsupportedProblemError,
)
from graphtik.problems import EXAMPLES


def test_grid_nodes():
    np.testing.assert_allclose(Grid(3, "interior").nodes, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(Grid(2, "midpoint").nodes, [0.25, 0.75])


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid(0)
    with pytest.raises(ParameterError):
        Grid(3, "vertex")


def test_operator_shape_contract():
    with pytest.raises(ContractViolationError):
        DiscreteOperator(np.eye(3), Grid(2), "penalty")


def test_stencil_values():
    np.testing.assert_allclose(
        toeplitz_stencil(4),
        [np.pi**2 / 3.0, -2.0, 0.5, -2.0 / 9.0],
        rtol=0,
        atol=1e-14,
    )
    np.testing.assert_array_equal(toeplitz_stencil(1), [np.pi**2 / 3.0])


def test_stencil_signs_alternate():
    t = toeplitz_stencil(12)
    assert np.all(t[1::2] < 0) and np.all(t[2::2] > 0)
    with pytest.raises(ParameterError):
        toeplitz_stencil(0)


def test_schrodinger_zero_potential():
    # h = 1/(n+1), so the Toeplitz block carries (n+1)^2 = 9 at n = 2
    op = build_schrodinger_operator(lambda x: np.zeros_like(x), 2)
    np.testing.assert_array_equal(op.matrix, 9.0 * sla.toeplitz(toeplitz_stencil(2)))
    assert op.grid == Grid(2, "interior")
    assert op.tag == "graph"


def test_schrodinger_constant_potential():
    op = build_schrodinger_operator(lambda x: -np.ones_like(x), 2)
    np.testing.assert_allclose(np.diag(op.matrix), 9.0 * np.pi**2 / 3.0 - 1.0)


def test_schrodinger_variable_potential():
    op0 = build_schrodinger_operator(lambda x: np.zeros_like(x), 3)
    op = build_schrodinger_operator(lambda x: x, 3)
    np.testing.assert_allclose(np.diag(op.matrix - op0.matrix), [0.25, 0.5, 0.75])


def test_schrodinger_scalar_potential_return():
    op = build_schrodinger_operator(lambda x: 0.0, 2)
    np.testing.assert_array_equal(op.matrix, 9.0 * sla.toeplitz(toeplitz_stencil(2)))


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1001])
@pytest.mark.parametrize("ex_id", [1, 2])
def test_schrodinger_matches_scipy_toeplitz_definition_bitwise(ex_id, n):
    # the definition the numpy Toeplitz build replaced, every bit kept
    q = EXAMPLES[ex_id].problem.potential
    want = (n + 1) ** 2 * sla.toeplitz(toeplitz_stencil(n)) + np.diag(q(Grid(n).nodes))
    L = build_schrodinger_operator(q, n).matrix
    assert L.shape == want.shape and L.tobytes() == want.tobytes()


def test_schrodinger_rejects_nonfinite_potential():
    with pytest.raises(EvaluationError):
        build_schrodinger_operator(lambda x: np.full_like(x, np.nan), 3)


def test_pseudo_inverse_diagonal():
    op = DiscreteOperator(np.diag([2.0, 0.0]), Grid(2), "penalty")
    K = pseudo_inverse(op)
    np.testing.assert_array_equal(K.matrix, np.diag([0.5, 0.0]))
    assert K.tag == "derived"


def test_pseudo_inverse_keeps_graph_tag():
    op = build_schrodinger_operator(lambda x: np.zeros_like(x), 4)
    assert pseudo_inverse(op).tag == "graph"


def test_pseudo_inverse_penrose():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6))
    A[:, 3] = A[:, 0]  # force rank deficiency
    op = DiscreteOperator(A, Grid(6), "penalty")
    K = pseudo_inverse(op).matrix
    np.testing.assert_allclose(A @ K @ A, A, atol=1e-10)
    np.testing.assert_allclose(K @ A @ K, K, atol=1e-10)
    np.testing.assert_allclose(A @ K, (A @ K).T, atol=1e-10)
    np.testing.assert_allclose(K @ A, (K @ A).T, atol=1e-10)


def _tensor_galerkin(p, n, q=8):
    """The Galerkin matrix by its definition: q x q Gauss-Legendre points on
    every cell pair, the diagonal cells split at the kink y = x."""
    gx, gw = np.polynomial.legendre.leggauss(q)
    mids = (np.arange(n) + 0.5) / n
    half = 0.5 / n
    nodes = mids[:, None] + half * gx[None, :]
    w = half * gw
    H = p.kernel(nodes[:, :, None, None], nodes[None, None, :, :])
    K = np.einsum("a,b,iajb->ij", w, w, H) * n
    for i in range(n):
        blo, bhi = mids[i] - half, mids[i] + half
        acc = 0.0
        for xa, wa in zip(nodes[i], w):
            h1, h2 = 0.5 * (xa - blo), 0.5 * (bhi - xa)
            acc += wa * (
                h1 * np.dot(gw, p.kernel(xa, blo + h1 * (gx + 1.0)))
                + h2 * np.dot(gw, p.kernel(xa, xa + h2 * (gx + 1.0)))
            )
        K[i, i] = acc * n
    return K


@pytest.mark.parametrize("ex_id", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_galerkin_matches_tensor_quadrature(ex_id, n):
    p = EXAMPLES[ex_id].problem
    want = _tensor_galerkin(p, n)
    got = build_galerkin_operator(p, n).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1001])
@pytest.mark.parametrize("ex_id", [1, 2])
def test_galerkin_matrix_is_exactly_symmetric(ex_id, n):
    # the entries above the diagonal are copied from the ones below
    K = build_galerkin_operator(EXAMPLES[ex_id].problem, n).matrix
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


def test_galerkin_constant_kernel():
    # int int over cell x cell of 1 is n^-2; times n gives 1/n in every entry
    p = ContinuousProblem(factors=(np.ones_like, np.ones_like), potential=lambda x: x)
    op = build_galerkin_operator(p, 3)
    np.testing.assert_allclose(op.matrix, np.full((3, 3), 1.0 / 3.0), atol=1e-14)
    assert op.grid == Grid(3, "midpoint")
    assert op.tag == "galerkin"


def test_galerkin_product_kernel():
    # u = v = t gives h = x y, which separates: entry_ij =
    # n * (int_cell_i x)(int_cell_j y); at n = 2 the cell integrals are 1/8 and 3/8
    p = ContinuousProblem(factors=(lambda t: t, lambda t: t), potential=lambda x: x)
    op = build_galerkin_operator(p, 2)
    want = 2.0 * np.outer([1.0 / 8.0, 3.0 / 8.0], [1.0 / 8.0, 3.0 / 8.0])
    np.testing.assert_allclose(op.matrix, want, atol=1e-14)


def test_galerkin_kink_diagonal():
    # min(x, y) (1 - max(x, y)) has a kink on the diagonal cells; split
    # quadrature must be exact for it: its integral over (0,1)^2 (n = 1) is 1/12
    p = ContinuousProblem(factors=(lambda t: t, lambda t: 1.0 - t), potential=lambda x: x)
    op = build_galerkin_operator(p, 1)
    np.testing.assert_allclose(op.matrix, [[1.0 / 12.0]], atol=1e-14)


def test_galerkin_validation():
    bad = ContinuousProblem(
        factors=(np.ones_like, lambda t: np.full_like(t, np.nan)), potential=lambda x: x
    )
    with pytest.raises(EvaluationError):
        build_galerkin_operator(bad, 2)


def test_eigendecomposition_second_difference():
    # eigenvalues of tridiag(-1, 2, -1) are 2 - 2 cos(k pi / (n+1)); the
    # matrix is centrosymmetric, so the even/odd split must reproduce them
    for n in (4, 5):
        t = np.zeros(n)
        t[0], t[1] = 2.0, -1.0
        k = np.arange(1, n + 1)
        want = np.sort(2.0 - 2.0 * np.cos(k * np.pi / (n + 1)))
        np.testing.assert_allclose(_EvenOddSplit(sla.toeplitz(t)).eigvalsh(), want, atol=1e-12)


def test_continuous_eigenvalues():
    lam2 = continuous_eigenvalues(EXAMPLES[2].problem, 3)
    np.testing.assert_allclose(lam2[0], 1.0 / (np.pi**2 - 1.0), rtol=1e-15)
    lam1 = continuous_eigenvalues(EXAMPLES[1].problem, 2)
    np.testing.assert_allclose(lam1[1], 1.0 / (4.0 * np.pi**2), rtol=1e-15)
    assert continuous_eigenvalues(EXAMPLES[1].problem, 0).size == 0


def test_continuous_eigenvalues_validation():
    with pytest.raises(ParameterError):
        continuous_eigenvalues(EXAMPLES[1].problem, -1)
    p = ContinuousProblem(factors=(lambda t: t, lambda t: t), potential=lambda x: x)
    with pytest.raises(UnsupportedProblemError):
        continuous_eigenvalues(p, 2)


def _centrosymmetric(n, seed):
    B = np.random.default_rng(seed).standard_normal((n, n))
    B = B + B.T
    return 0.5 * (B + B[::-1, ::-1])  # exactly symmetric and centrosymmetric


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_even_odd_split_matches_full_lapack(n, seed):
    A = _centrosymmetric(n, seed)
    split = _EvenOddSplit(A)
    assert split.even.shape == ((n + 1) // 2,) * 2 and split.odd.shape == (n // 2,) * 2
    lam = np.linalg.eigvalsh(A)
    scale = np.max(np.abs(lam))
    np.testing.assert_allclose(split.eigvalsh(), lam, rtol=0, atol=1e-12 * scale)
    # a solve loses up to cond(A) * eps either way; skip near-singular draws
    cond = scale / np.min(np.abs(lam))
    if cond > 1e8:
        return
    b = np.random.default_rng(seed + 1).standard_normal(n)
    x = sla.solve(A, b, assume_a="sym")
    np.testing.assert_allclose(
        split.solve(b), x, rtol=0, atol=1e-13 * cond * np.max(np.abs(x))
    )


@pytest.mark.parametrize(
    "A",
    [
        np.diag([1.0, 2.0, 3.0, 4.0]),  # even n, corner blocks differ
        np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]]),  # middle row only
        np.array([[1.0, 0.0, 0.3, 0.0], [0.0, 1.0, 0.0, 0.1],
                  [0.3, 0.0, 1.0, 0.0], [0.0, 0.1, 0.0, 1.0]]),  # off-diagonal blocks only
    ],
)
def test_even_odd_split_rejects_non_centrosymmetric(A):
    with pytest.raises(ContractViolationError):
        _EvenOddSplit(A)
