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
    build_schrodinger_blocks,
    build_schrodinger_operator,
    pseudo_inverse,
    toeplitz_stencil,
    _even_odd_blocks,
    _even_odd_solve,
    _join_even_odd,
)
from graphtik.errors import (
    NumericalFailure,
    ParameterError,
)
from graphtik.experiments import continuous_spectrum
from graphtik.problems import EXAMPLES


def _split_eigvalsh(blocks):
    """The eigenvalues of the matrix with these even and odd blocks, ascending."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))


def test_grid_nodes():
    np.testing.assert_allclose(Grid(3, "interior").nodes, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(Grid(2, "midpoint").nodes, [0.25, 0.75])
    # build_galerkin_operator reads its cell centres (k + 1/2)/n from the grid
    for n in (1, 2, 3, 100, 1001, 2000):
        assert Grid(n, "midpoint").nodes.tobytes() == ((np.arange(n) + 0.5) / n).tobytes()


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid(0)
    with pytest.raises(ParameterError):
        Grid(3, "vertex")


def test_operator_shape_contract():
    with pytest.raises(ParameterError, match=r"matrix shape \(3, 3\) does not match grid size 2"):
        DiscreteOperator(np.eye(3), Grid(2))


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


def test_schrodinger_constant_potential():
    op = build_schrodinger_operator(lambda x: -np.ones_like(x), 2)
    np.testing.assert_allclose(np.diag(op.matrix), 9.0 * np.pi**2 / 3.0 - 1.0)


def test_schrodinger_variable_potential():
    op0 = build_schrodinger_operator(lambda x: np.zeros_like(x), 3)
    op = build_schrodinger_operator(lambda x: x, 3)
    np.testing.assert_allclose(np.diag(op.matrix - op0.matrix), [0.25, 0.5, 0.75])


def test_schrodinger_scalar_potential_return():
    # a potential returns one value per node; a scalar breaks that contract
    with pytest.raises(ParameterError, match=r"potential must return shape \(2,\), got \(\)"):
        build_schrodinger_operator(lambda x: 0.0, 2)
    with pytest.raises(ParameterError, match=r"potential must return shape \(3,\), got \(3, 1\)"):
        build_schrodinger_blocks(lambda x: x[:, None], 3)


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1001])
@pytest.mark.parametrize("ex_id", [1, 2])
def test_schrodinger_matches_scipy_toeplitz_definition_bitwise(ex_id, n):
    # the definition the numpy Toeplitz build replaced, every bit kept
    q = EXAMPLES[ex_id].potential
    want = (n + 1) ** 2 * sla.toeplitz(toeplitz_stencil(n)) + np.diag(q(Grid(n).nodes))
    L = build_schrodinger_operator(q, n).matrix
    assert L.shape == want.shape and L.tobytes() == want.tobytes()


def test_schrodinger_rejects_nonfinite_potential():
    with pytest.raises(NumericalFailure, match="potential not finite on all grid nodes"):
        build_schrodinger_operator(lambda x: np.full_like(x, np.nan), 3)


_NOT_CENTROSYMMETRIC = "matrix is not centrosymmetric to 1e-10 of its largest entry"

_EVEN_POTENTIALS = {
    "example 1": EXAMPLES[1].potential,
    "example 2": EXAMPLES[2].potential,
    "not constant": lambda x: 40.0 * (x - 0.5) ** 2 - 3.0 * np.cos(2.0 * np.pi * x),
}


@pytest.mark.parametrize("n", [*range(1, 65), 99, 100, 101, 1000, 2000])
def test_schrodinger_blocks_equal_the_split_of_L_bitwise(n):
    # n = 1 has an empty odd block and no Hankel window; odd n a middle node
    for name, q in _EVEN_POTENTIALS.items():
        even, odd = build_schrodinger_blocks(q, n)
        split_even, split_odd = _even_odd_blocks(build_schrodinger_operator(q, n).matrix)
        assert even.shape == split_even.shape and even.tobytes() == split_even.tobytes(), name
        assert odd.shape == split_odd.shape and odd.tobytes() == split_odd.tobytes(), name


@pytest.mark.parametrize("n", [2, 3, 100, 101])
def test_schrodinger_blocks_test_evenness_like_the_split(n):
    # the blocks read L - JLJ from L's diagonal alone; a tilt of the
    # potential is accepted or rejected exactly where the split's test on
    # the full L accepts or rejects it.  The tilt q = c x leaves a defect
    # c (n-1)/(n+1) against a largest entry of about (n+1)^2 pi^2/3.
    edge = 1e-10 * (n + 1) ** 2 * np.pi**2 / 3.0 * (n + 1) / (n - 1)
    outcomes = []
    for c in edge * np.array([0.0, 0.5, 0.999, 0.9999999, 1.0, 1.0000001, 1.001, 2.0, 1e6]):
        def q(x):
            return c * x

        try:
            _even_odd_blocks(build_schrodinger_operator(q, n).matrix)
        except ParameterError as exc:
            assert str(exc) == _NOT_CENTROSYMMETRIC
            outcomes.append(False)
            with pytest.raises(ParameterError, match="potential is not even about x = 1/2"):
                build_schrodinger_blocks(q, n)
        else:
            outcomes.append(True)
            build_schrodinger_blocks(q, n)
    assert True in outcomes and False in outcomes
    with pytest.raises(NumericalFailure, match="potential not finite on all grid nodes"):
        build_schrodinger_blocks(lambda x: np.full_like(x, np.nan), n)


def test_pseudo_inverse_diagonal():
    op = DiscreteOperator(np.diag([2.0, 0.0]), Grid(2))
    K = pseudo_inverse(op)
    np.testing.assert_array_equal(K.matrix, np.diag([0.5, 0.0]))
    assert K.grid == op.grid


def test_pseudo_inverse_svd_failure_is_numerical(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalFailure, match="SVD of the operator failed"):
        pseudo_inverse(DiscreteOperator(np.eye(2), Grid(2)))


def test_pseudo_inverse_penrose():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6))
    A[:, 3] = A[:, 0]  # force rank deficiency
    op = DiscreteOperator(A, Grid(6))
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
    p = EXAMPLES[ex_id]
    want = _tensor_galerkin(p, n)
    got = build_galerkin_operator(p, n).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1001])
@pytest.mark.parametrize("ex_id", [1, 2])
def test_galerkin_matrix_is_exactly_symmetric(ex_id, n):
    # the entries above the diagonal are copied from the ones below
    K = build_galerkin_operator(EXAMPLES[ex_id], n).matrix
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


def test_galerkin_constant_kernel():
    # int int over cell x cell of 1 is n^-2; times n gives 1/n in every entry
    p = ContinuousProblem(factors=(np.ones_like, np.ones_like), potential=lambda x: x)
    op = build_galerkin_operator(p, 3)
    np.testing.assert_allclose(op.matrix, np.full((3, 3), 1.0 / 3.0), atol=1e-14)
    assert op.grid == Grid(3, "midpoint")


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
    with pytest.raises(NumericalFailure, match="kernel not finite inside a quadrature cell"):
        build_galerkin_operator(bad, 2)


def test_eigendecomposition_second_difference():
    # eigenvalues of tridiag(-1, 2, -1) are 2 - 2 cos(k pi / (n+1)); the
    # matrix is centrosymmetric, so the even/odd split must reproduce them
    for n in (4, 5):
        t = np.zeros(n)
        t[0], t[1] = 2.0, -1.0
        k = np.arange(1, n + 1)
        want = np.sort(2.0 - 2.0 * np.cos(k * np.pi / (n + 1)))
        np.testing.assert_allclose(_split_eigvalsh(_even_odd_blocks(sla.toeplitz(t))), want, atol=1e-12)


def test_continuous_eigenvalues():
    lam2 = continuous_spectrum(2, 3)
    np.testing.assert_allclose(lam2[0], 1.0 / (np.pi**2 - 1.0), rtol=1e-15)
    lam1 = continuous_spectrum(1, 2)
    np.testing.assert_allclose(lam1[1], 1.0 / (4.0 * np.pi**2), rtol=1e-15)
    # the law maps the empty index range to an empty spectrum
    empty = continuous_spectrum(1, 0)
    assert empty.shape == (0,) and empty.dtype == float


def test_continuous_eigenvalues_validation():
    with pytest.raises(ParameterError, match="n must be an integer >= 0"):
        continuous_spectrum(1, -1)
    with pytest.raises(ParameterError, match="example id"):
        continuous_spectrum(3, 2)


def _centrosymmetric(n, seed):
    B = np.random.default_rng(seed).standard_normal((n, n))
    B = B + B.T
    return 0.5 * (B + B[::-1, ::-1])  # exactly symmetric and centrosymmetric


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_even_odd_split_matches_full_lapack(n, seed):
    A = _centrosymmetric(n, seed)
    even, odd = _even_odd_blocks(A)
    assert even.shape == ((n + 1) // 2,) * 2 and odd.shape == (n // 2,) * 2
    lam = np.linalg.eigvalsh(A)
    scale = np.max(np.abs(lam))
    np.testing.assert_allclose(_split_eigvalsh((even, odd)), lam, rtol=0, atol=1e-12 * scale)
    # the join of the block eigenbases is an orthogonal eigenbasis of A
    (lam_even, U_even), (lam_odd, U_odd) = np.linalg.eigh(even), np.linalg.eigh(odd)
    V = _join_even_odd(U_even, U_odd)
    np.testing.assert_allclose(V.T @ V, np.eye(n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        V.T @ A @ V, np.diag(np.concatenate([lam_even, lam_odd])), rtol=0, atol=1e-12 * scale
    )
    # a solve loses up to cond(A) * eps either way; skip near-singular draws
    cond = scale / np.min(np.abs(lam))
    if cond > 1e8:
        return
    b = np.random.default_rng(seed + 1).standard_normal(n)
    x = sla.solve(A, b, assume_a="sym")
    np.testing.assert_allclose(
        _even_odd_solve(even, odd, b), x, rtol=0, atol=1e-13 * cond * np.max(np.abs(x))
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
    with pytest.raises(ParameterError, match=_NOT_CENTROSYMMETRIC):
        _even_odd_blocks(A)
