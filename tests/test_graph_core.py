"""Integer-line m-path Laplacians and their transformed sums."""
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtik.discretization import toeplitz_stencil
from graphtik.errors import ParameterError
from graphtik.graph_core import (
    DirichletSubsetSpec,
    PathTransform,
    alternating_inverse_square_transform,
    line_interior,
    m_path_dirichlet_laplacian,
    transformed_path_laplacian,
)


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


def test_m_path_rejects_bad_m():
    # a fractional m is refused, not read as its integer part
    for m in (0, 1.5, True):
        with pytest.raises(ParameterError):
            m_path_dirichlet_laplacian(line_interior(3), m)


def test_subset_spec_rejects_empty_and_improper():
    with pytest.raises(ParameterError):
        DirichletSubsetSpec(())
    for n in (0, 2.5, True):
        with pytest.raises(ParameterError):
            line_interior(n)


@pytest.mark.parametrize("idx", [(1, 1, 2), (1, 1.5), (1, 2.5), (True, 2)])
def test_subset_spec_rejects_repeated_and_non_integer_labels(idx):
    # a repeated label would count its node twice, and a fractional one has
    # no place on the integer line (its gaps would be truncated or zero)
    with pytest.raises(ParameterError):
        DirichletSubsetSpec(idx)


def test_subset_spec_accepts_numpy_integer_labels():
    spec = DirichletSubsetSpec(tuple(np.arange(1, 6)))
    t = alternating_inverse_square_transform()
    np.testing.assert_array_equal(
        transformed_path_laplacian(spec, t, "analytic"),
        transformed_path_laplacian(line_interior(5), t, "analytic"),
    )


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
    A = transformed_path_laplacian(DirichletSubsetSpec(idx), t, truncation)
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


def test_analytic_needs_line_and_tail_rule():
    t = alternating_inverse_square_transform()
    with pytest.raises(ParameterError, match="analytic sum needs a tail_rule"):
        transformed_path_laplacian(
            DirichletSubsetSpec((1, 2)), PathTransform(phi=t.phi, tail_rule=None), "analytic"
        )


def test_transform_rejects_bad_truncation():
    # 2.7 and True are refused, not truncated to 2 and 1
    t = alternating_inverse_square_transform()
    for truncation in (0, 2.7, True, "exact"):
        with pytest.raises(ParameterError):
            transformed_path_laplacian(line_interior(3), t, truncation)


def test_summability_guard():
    with pytest.raises(ParameterError):
        transformed_path_laplacian(line_interior(3), PathTransform(phi=lambda m: 1.0), 2)


@st.composite
def _line_subsets(draw):
    labels = draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8, unique=True))
    return DirichletSubsetSpec(tuple(labels))


@settings(max_examples=50, deadline=None)
@given(_line_subsets(), st.integers(min_value=1, max_value=12))
def test_laplacian_invariants(spec, m):
    # each m-path Laplacian is symmetric, has diagonal 2 and at most two -1
    # entries per row, so it is positive semidefinite; the analytic sum is a
    # principal submatrix of the line Toeplitz operator with symbol theta^2,
    # so it is positive definite on every finite subset
    A = m_path_dirichlet_laplacian(spec, m)
    np.testing.assert_array_equal(A, A.T)
    np.testing.assert_array_equal(np.diag(A), 2.0)
    assert np.all((A == -1.0).sum(axis=1) <= 2)
    assert np.linalg.eigvalsh(A)[0] >= -1e-12
    T = transformed_path_laplacian(spec, alternating_inverse_square_transform(), "analytic")
    np.testing.assert_array_equal(T, T.T)
    assert np.linalg.eigvalsh(T)[0] > 0.0
