import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphtik.errors import ParameterError
from graphtik.experiments import ExperimentConfig, run_cell
from graphtik.graph_core import line_interior, m_path_dirichlet_laplacian
from graphtik.penalty import (
    SimilarityParams,
    data_graph_laplacian,
    dirichlet_penalty,
    kernel_matched_penalty,
    neumann_penalty,
    similarity_weights,
)


def test_dirichlet_matrix():
    np.testing.assert_array_equal(
        dirichlet_penalty(3).matrix,
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]],
    )
    with pytest.raises(ParameterError):
        dirichlet_penalty(1)


def test_neumann_matrix():
    np.testing.assert_array_equal(
        neumann_penalty(3).matrix,
        [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
    )


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1001])
def test_second_differences_match_scipy_toeplitz_definition_bitwise(n):
    # the definitions the numpy Toeplitz build replaced, every bit kept
    if n == 1:
        for build in (dirichlet_penalty, neumann_penalty):
            with pytest.raises(ParameterError):
                build(n)
        return
    t = np.zeros(n)
    t[0], t[1] = 2.0, -1.0
    want = sla.toeplitz(t)
    assert dirichlet_penalty(n).matrix.tobytes() == want.tobytes()
    want[0, 0] = want[-1, -1] = 1.0
    assert neumann_penalty(n).matrix.tobytes() == want.tobytes()


def test_row_sums():
    n = 6
    ones = np.ones(n)
    # lowered corners put constants in the kernel
    np.testing.assert_allclose(neumann_penalty(n).matrix @ ones, 0.0, atol=1e-15)
    rs = dirichlet_penalty(n).matrix @ ones
    np.testing.assert_array_equal(rs, [1.0] + [0.0] * (n - 2) + [1.0])


def test_dirichlet_spectrum():
    n = 10
    lam = np.linalg.eigvalsh(dirichlet_penalty(n).matrix)
    np.testing.assert_allclose(lam[0], 2.0 - 2.0 * np.cos(np.pi / (n + 1)), atol=1e-12)
    assert lam[0] > 0  # strictly positive definite


def test_dirichlet_is_one_path_laplacian():
    n = 7
    np.testing.assert_array_equal(
        dirichlet_penalty(n).matrix, m_path_dirichlet_laplacian(line_interior(n), 1)
    )


def test_similarity_constant_data():
    # equal samples give weight exactly 1 on the whole band: the path adjacency
    W = similarity_weights(np.zeros(4), SimilarityParams(r=1, sigma=0.5))
    i = np.arange(4)
    adjacency = (np.abs(i[:, None] - i[None, :]) == 1).astype(float)
    np.testing.assert_array_equal(W, adjacency)


def test_similarity_gaussian_value():
    W = similarity_weights(np.array([0.0, 0.3]), SimilarityParams(r=1, sigma=0.3))
    np.testing.assert_allclose(W[0, 1], np.exp(-1.0), rtol=1e-15)


def test_similarity_band_radius():
    g = np.arange(5.0)
    W = similarity_weights(g, SimilarityParams(r=2, sigma=100.0))
    assert W[0, 2] > 0.0 and W[0, 3] == 0.0
    # full bandwidth is allowed
    Wfull = similarity_weights(g, SimilarityParams(r=5, sigma=100.0))
    assert np.all(Wfull[~np.eye(5, dtype=bool)] > 0.0)


def test_similarity_params_validation():
    with pytest.raises(ParameterError):
        similarity_weights(np.zeros(4), SimilarityParams(r=0, sigma=1.0))
    with pytest.raises(ParameterError):
        similarity_weights(np.zeros(4), SimilarityParams(r=5, sigma=1.0))
    with pytest.raises(ParameterError):
        similarity_weights(np.zeros(4), SimilarityParams(r=1, sigma=0.0))
    # refused when made: an infinite width would make every weight 1
    for sigma in (float("inf"), float("nan"), 10**400, "0.1", True):
        with pytest.raises(ParameterError, match="sigma"):
            SimilarityParams(r=1, sigma=sigma)
    # and one whose square, which the weights divide by, underflows to 0
    with pytest.raises(ParameterError, match="sigma"):
        SimilarityParams(r=1, sigma=1e-300)
    # the data: a NaN sample made NaN weights, an inf one cut its node off,
    # and 2-D data raised numpy's ValueError
    for g in ([0.0, np.nan, 1.0, 2.0], [0.0, np.inf, 1.0, 2.0], np.zeros((2, 2))):
        for build in (similarity_weights, data_graph_laplacian):
            with pytest.raises(ParameterError, match="data"):
                build(g, SimilarityParams(r=1, sigma=1.0))


def test_data_graph_constant_equals_neumann():
    # constant data, r = 1: weights are the path adjacency, so D - W is the
    # second difference with lowered corners
    A = data_graph_laplacian(np.full(5, 2.5), SimilarityParams(r=1, sigma=1.0))
    np.testing.assert_array_equal(A.matrix, neumann_penalty(5).matrix)


def test_data_graph_invariants():
    rng = np.random.default_rng(3)
    g = rng.standard_normal(30)
    A = data_graph_laplacian(g, SimilarityParams(r=6, sigma=0.01)).matrix
    np.testing.assert_allclose(A, A.T, atol=0)
    np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(A)[0] >= -1e-10


@pytest.mark.parametrize("penalty", ["a3", "matched"])
def test_similarity_weights_that_all_underflow_are_refused(penalty):
    # at sigma = 1e-10 every weight of the n = 20 cell's noisy data underflows
    # to 0, which would make the penalty the zero matrix
    config = ExperimentConfig(example=2, test_function=3, n=20, epsilon=0.01, penalty=penalty, sigma=1e-10)
    with pytest.raises(ParameterError, match="sigma"):
        run_cell(config)
    g = np.linspace(0.0, 1.0, 20)  # neighbours 0.05 apart, the weights exp(-2.5e17)
    with pytest.raises(ParameterError, match="sigma"):
        data_graph_laplacian(g, SimilarityParams(r=2, sigma=1e-10))


def test_matched_penalty_annihilates_anchor():
    rng = np.random.default_rng(11)
    anchor = 0.5 + rng.random(8)
    A = kernel_matched_penalty(dirichlet_penalty(8), anchor)
    np.testing.assert_allclose(A.matrix @ anchor, 0.0, atol=1e-12)
    assert A.grid == dirichlet_penalty(8).grid


def test_matched_penalty_ones_anchor():
    # kappa = -(Delta 1) is minus the row sums
    A = kernel_matched_penalty(dirichlet_penalty(4), np.ones(4))
    kappa = np.diag(A.matrix - dirichlet_penalty(4).matrix)
    np.testing.assert_array_equal(kappa, [-1.0, 0.0, 0.0, -1.0])


def test_matched_penalty_rejects_zero_anchor():
    with pytest.raises(ParameterError, match="anchor has a zero entry"):
        kernel_matched_penalty(dirichlet_penalty(3), np.array([1.0, 0.0, 1.0]))
    # one finite entry per node: a NaN anchor made a NaN penalty, and a
    # wrong-length one raised numpy's ValueError
    for anchor in ([1.0, np.nan, 1.0], [1.0, np.inf, 1.0], np.ones(4), np.ones((3, 1))):
        with pytest.raises(ParameterError, match="anchor"):
            kernel_matched_penalty(dirichlet_penalty(3), anchor)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=20),
    st.integers(min_value=1, max_value=19),
    st.floats(min_value=1e-3, max_value=10.0),
)
@example([0.0, 1.0, -1.0], 1, 1e-3)
def test_data_graph_laplacian_properties(vals, r, sigma):
    g = np.asarray(vals)
    r = min(r, g.size)
    params = SimilarityParams(r=r, sigma=sigma)
    if not similarity_weights(g, params).any():  # every weight underflows
        with pytest.raises(ParameterError, match="sigma"):
            data_graph_laplacian(g, params)
        return
    A = data_graph_laplacian(g, params).matrix
    np.testing.assert_allclose(A, A.T, atol=0)
    np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-10)
    assert np.linalg.eigvalsh(A)[0] >= -1e-10
