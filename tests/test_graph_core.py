"""Laplacians, BFS distances, m-path operators and transformed sums."""
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtik.discretization import toeplitz_stencil
from graphtik.errors import (
    InsufficientSpecificationError,
    InvalidGraphError,
    ParameterError,
    UnsupportedGraphError,
)
from graphtik.graph_core import (
    DirichletSubsetSpec,
    Graph,
    INTEGER_LINE,
    PathTransform,
    alternating_inverse_square_transform,
    combinatorial_distance,
    laplacian_matrix,
    line_interior,
    m_path_dirichlet_laplacian,
    transformed_path_laplacian,
)


def _chain(k, extra_potential=()):
    # unweighted path graph 0 - 1 - ... - (k-1)
    w = {(i, i + 1): 1.0 for i in range(k - 1)}
    return Graph(nodes=tuple(range(k)), weights=w, potential=tuple(extra_potential))


def test_laplacian_two_nodes():
    g = Graph(nodes=(0, 1), weights={(0, 1): 2.0})
    np.testing.assert_array_equal(laplacian_matrix(g), [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_mirrors_one_sided_weights():
    a = Graph(nodes=(0, 1, 2), weights={(0, 1): 1.0, (2, 1): 3.0})
    b = Graph(nodes=(0, 1, 2), weights={(1, 0): 1.0, (1, 2): 3.0, (2, 1): 3.0})
    np.testing.assert_array_equal(laplacian_matrix(a), laplacian_matrix(b))


def test_laplacian_potential_on_diagonal():
    g = _chain(3, extra_potential=(5.0, 0.0, -1.0))
    L = laplacian_matrix(g)
    # row sums of D - W vanish, so they expose the potential
    np.testing.assert_allclose(L.sum(axis=1), [5.0, 0.0, -1.0], atol=1e-15)


def test_laplacian_rejects_negative_weight():
    with pytest.raises(InvalidGraphError):
        laplacian_matrix(Graph(nodes=(0, 1), weights={(0, 1): -1.0}))


def test_laplacian_rejects_nonzero_diagonal():
    with pytest.raises(InvalidGraphError):
        laplacian_matrix(Graph(nodes=(0, 1), weights={(0, 0): 1.0}))


def test_laplacian_rejects_conflicting_pair():
    with pytest.raises(InvalidGraphError):
        laplacian_matrix(Graph(nodes=(0, 1), weights={(0, 1): 1.0, (1, 0): 2.0}))


def test_laplacian_rejects_bad_potential_length():
    with pytest.raises(InvalidGraphError):
        laplacian_matrix(Graph(nodes=(0, 1), weights={(0, 1): 1.0}, potential=(1.0,)))


def test_distance_on_chain():
    g = _chain(5)
    assert combinatorial_distance(g, 0, 3) == 3
    assert combinatorial_distance(g, 2, 2) == 0
    assert combinatorial_distance(g, 4, 0) == 4


def test_distance_disconnected_is_inf():
    g = Graph(nodes=(0, 1, 2, 3), weights={(0, 1): 1.0, (2, 3): 1.0})
    assert combinatorial_distance(g, 0, 3) == float("inf")


def test_m_path_line_m1_is_second_difference():
    A = m_path_dirichlet_laplacian(line_interior(5), 1)
    t = np.zeros(5)
    t[0], t[1] = 2.0, -1.0
    np.testing.assert_array_equal(A, sla.toeplitz(t))


def test_m_path_line_m2_pattern():
    A = m_path_dirichlet_laplacian(line_interior(4), 2)
    expected = np.array(
        [
            [2.0, 0.0, -1.0, 0.0],
            [0.0, 2.0, 0.0, -1.0],
            [-1.0, 0.0, 2.0, 0.0],
            [0.0, -1.0, 0.0, 2.0],
        ]
    )
    np.testing.assert_array_equal(A, expected)


def test_m_path_line_beyond_largest_gap():
    # no interior pair is that far apart, only the boundary count remains
    A = m_path_dirichlet_laplacian(line_interior(3), 7)
    np.testing.assert_array_equal(A, 2.0 * np.eye(3))


def test_m_path_finite_chain_matches_line():
    # interior of a long enough chain cannot tell it is not the integer line;
    # there must be at least m ambient nodes beyond each end of the interior
    amb = _chain(11)
    spec = DirichletSubsetSpec(amb, tuple(range(3, 8)))
    for m in (1, 2, 3):
        np.testing.assert_array_equal(
            m_path_dirichlet_laplacian(spec, m),
            m_path_dirichlet_laplacian(line_interior(5), m),
        )


def test_m_path_finite_chain_boundary_deficit():
    # interior touching the chain end: node 0 has one distance-1 neighbor only
    amb = _chain(4)
    spec = DirichletSubsetSpec(amb, (0, 1, 2))
    A = m_path_dirichlet_laplacian(spec, 1)
    np.testing.assert_array_equal(
        A, [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    )


def test_m_path_rejects_weighted_ambient():
    amb = Graph(nodes=(0, 1, 2), weights={(0, 1): 2.0, (1, 2): 1.0})
    with pytest.raises(UnsupportedGraphError):
        m_path_dirichlet_laplacian(DirichletSubsetSpec(amb, (0, 1)), 1)


def test_m_path_rejects_bad_m():
    with pytest.raises(ParameterError):
        m_path_dirichlet_laplacian(line_interior(3), 0)


def test_subset_spec_rejects_empty_and_improper():
    with pytest.raises(InvalidGraphError):
        DirichletSubsetSpec(INTEGER_LINE, ())
    with pytest.raises(InvalidGraphError):
        DirichletSubsetSpec(_chain(3), (0, 1, 2))
    with pytest.raises(ParameterError):
        line_interior(0)


def test_alternating_transform_matches_stencil_row():
    # phi(m) = (-1)^(m+1) 2/m^2 summed over all m gives the Toeplitz row
    # [pi^2/3, -2, 1/2, -2/9, ...]
    A = transformed_path_laplacian(
        line_interior(4), alternating_inverse_square_transform(), "analytic"
    )
    row = [np.pi**2 / 3.0, -2.0, 0.5, -2.0 / 9.0]
    np.testing.assert_allclose(A[0], row, rtol=0, atol=1e-14)
    np.testing.assert_allclose(A, A.T, atol=0)


def test_analytic_line_sum_equals_stencil_toeplitz_exactly():
    n = 1000
    A = transformed_path_laplacian(line_interior(n), alternating_inverse_square_transform(), "analytic")
    np.testing.assert_array_equal(A, sla.toeplitz(toeplitz_stencil(n)))


@pytest.mark.parametrize("truncation", [1, 3, 7, "analytic"])
def test_line_sum_on_scattered_nodes_matches_entrywise_definition(truncation):
    t = alternating_inverse_square_transform()
    idx = (-4, 1, 2, 5, 9)
    A = transformed_path_laplacian(DirichletSubsetSpec(INTEGER_LINE, idx), t, truncation)
    if truncation == "analytic":
        M, diag = np.inf, 2.0 * t.tail_rule(0)
    else:
        M, diag = truncation, 2.0 * sum(t.phi(m) for m in range(1, truncation + 1)) + 2.0 * t.tail_rule(truncation)
    want = np.array(
        [[diag if a == b else (-t.phi(abs(a - b)) if abs(a - b) <= M else 0.0) for b in idx] for a in idx]
    )
    np.testing.assert_array_equal(A, want)


def test_transform_single_term():
    # phi supported on m = 1 reduces to the plain second difference
    t = PathTransform(phi=lambda m: 1.0 if m == 1 else 0.0)
    A = transformed_path_laplacian(line_interior(4), t, 1)
    np.testing.assert_array_equal(A, m_path_dirichlet_laplacian(line_interior(4), 1))


def test_transform_zero_phi():
    t = PathTransform(phi=lambda m: 0.0)
    A = transformed_path_laplacian(line_interior(3), t, 5)
    np.testing.assert_array_equal(A, np.zeros((3, 3)))


def test_truncated_transform_converges_to_analytic():
    t = alternating_inverse_square_transform()
    no_tail = PathTransform(phi=t.phi, tail_rule=None)
    exact = transformed_path_laplacian(line_interior(30), t, "analytic")
    diffs = [
        np.max(np.abs(transformed_path_laplacian(line_interior(30), no_tail, M) - exact))
        for M in (10, 100, 1000)
    ]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-5


def test_truncated_transform_with_tail_rule_has_exact_diagonal():
    t = alternating_inverse_square_transform()
    exact = transformed_path_laplacian(line_interior(10), t, "analytic")
    trunc = transformed_path_laplacian(line_interior(10), t, 3)
    np.testing.assert_array_equal(np.diag(trunc), np.diag(exact))


def test_transform_on_finite_ambient():
    amb = _chain(11)
    spec = DirichletSubsetSpec(amb, tuple(range(3, 8)))
    t = alternating_inverse_square_transform()
    got = transformed_path_laplacian(spec, t, 3)
    want = transformed_path_laplacian(
        line_interior(5), PathTransform(phi=t.phi, tail_rule=None), 3
    )
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_analytic_needs_line_and_tail_rule():
    t = alternating_inverse_square_transform()
    amb = _chain(4)
    with pytest.raises(InsufficientSpecificationError):
        transformed_path_laplacian(DirichletSubsetSpec(amb, (1, 2)), t, "analytic")
    with pytest.raises(InsufficientSpecificationError):
        transformed_path_laplacian(
            line_interior(3), PathTransform(phi=t.phi, tail_rule=None), "analytic"
        )


def test_transform_rejects_bad_truncation():
    t = alternating_inverse_square_transform()
    with pytest.raises(ParameterError):
        transformed_path_laplacian(line_interior(3), t, 0)


def test_summability_guard():
    with pytest.raises(ParameterError):
        transformed_path_laplacian(line_interior(3), PathTransform(phi=lambda m: 1.0), 2)


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    edges = draw(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda ij: ij[0] < ij[1]),
            st.floats(min_value=0.0, max_value=10.0),
            max_size=8,
        )
    )
    return Graph(nodes=tuple(range(n)), weights=edges)


@settings(max_examples=50, deadline=None)
@given(_graphs())
def test_laplacian_invariants(g):
    L = laplacian_matrix(g)
    np.testing.assert_allclose(L, L.T, atol=0)
    np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(L)[0] >= -1e-10
