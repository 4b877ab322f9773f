"""Path Laplacians of finite node sets on the integer line.

The integer line is the unweighted graph on all integers with edges joining
i and i+1.  For a finite interior subset of it, the m-path Dirichlet
Laplacian joins interior nodes at distance m (entry -1) and counts both
distance-m neighbours of every node on the diagonal, the ones outside the
subset acting as a boundary potential; so its diagonal is 2.  A
PathTransform weights these by phi(m), and the sum over all m has a closed
form, so the infinite line is never materialized.

For the alternating inverse-square phi the sum over {1, ..., n} is the
Toeplitz matrix T of the lattice operator L = (n+1)^2 T + diag(q).  The
operator itself is built from discretization.toeplitz_stencil; this module
builds T independently, entry by entry, so that the two can be compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, _is_int


@dataclass(frozen=True)
class DirichletSubsetSpec:
    """A finite set of integer-line nodes, by their integer labels.

    The labels must be distinct integers; their order is the row order of
    every matrix built on the subset.
    """

    interior_indices: tuple

    def __post_init__(self):
        idx = self.interior_indices
        if len(idx) == 0:
            raise ParameterError("empty interior subset")
        if not all(_is_int(i) for i in idx):
            raise ParameterError(f"interior labels must be integers, got {idx!r}")
        if len(set(idx)) != len(idx):
            raise ParameterError(f"interior labels must be distinct, got {idx!r}")


def line_interior(n: int) -> DirichletSubsetSpec:
    """The subset {1, ..., n} of the integer line."""
    if not (_is_int(n) and n >= 1):
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    return DirichletSubsetSpec(tuple(range(1, n + 1)))


@dataclass(frozen=True)
class PathTransform:
    """Coefficients phi(m) for a distance-m path Laplacian sum.

    tail_rule, when given, must return sum_{m > M} phi(m) in closed form.
    phi must be absolutely summable; a cheap numerical divergence guard runs
    before any matrix is assembled.
    """

    phi: Callable[[int], float]
    tail_rule: Callable[[int], float] | None = None

    def check_summable(self) -> None:
        # dyadic-window increments of sum |phi| must shrink
        w1 = sum(abs(self.phi(m)) for m in range(1025, 4097))
        w2 = sum(abs(self.phi(m)) for m in range(4097, 8193))
        if not (w2 < w1 or (w1 == 0.0 and w2 == 0.0)):
            raise ParameterError("phi does not look absolutely summable")


def alternating_inverse_square_transform() -> PathTransform:
    """phi(m) = (-1)^(m+1) * 2 / m^2, with its exact tail sum.

    This is the transform whose line-graph sum has the closed Toeplitz form
    used by the operator discretization (sum over all m equals pi^2/6).
    """

    def phi(m: int) -> float:
        return (-1.0) ** (m + 1) * 2.0 / m**2

    def tail(M: int) -> float:
        return np.pi**2 / 6.0 - sum(phi(m) for m in range(1, M + 1))

    return PathTransform(phi=phi, tail_rule=tail)


def m_path_dirichlet_laplacian(spec: DirichletSubsetSpec, m: int) -> np.ndarray:
    """The distance-m Laplacian on the subset, outside neighbors as potential.

    Off-diagonal (i, j) is -1 exactly when the interior nodes sit at
    distance m on the line; the diagonal counts both nodes at distance m
    (inside ones from the difference part, outside ones as the Dirichlet
    boundary potential).
    """
    if not (_is_int(m) and m >= 1):
        raise ParameterError(f"m must be a positive integer, got {m!r}")
    idx = np.asarray(spec.interior_indices)
    # every integer has exactly two nodes at distance m, so diag is 2
    gap = np.abs(idx[:, None] - idx[None, :])
    A = np.where(gap == m, -1.0, 0.0)
    np.fill_diagonal(A, 2.0)
    return A


def _line_gap_matrix(idx: np.ndarray, phi: Callable[[int], float], max_gap) -> np.ndarray:
    """-phi(|i - j|) between line nodes i != j whose gap is at most max_gap
    (None: every gap), zero elsewhere; phi is evaluated once per distinct gap."""
    gaps, where = np.unique(np.abs(idx[:, None] - idx[None, :]), return_inverse=True)
    values = np.zeros(gaps.size)
    for i, d in enumerate(gaps):
        if d > 0 and (max_gap is None or d <= max_gap):
            values[i] = -phi(int(d))
    return values[where.reshape(idx.size, idx.size)]


def transformed_path_laplacian(
    spec: DirichletSubsetSpec,
    t: PathTransform,
    truncation,
) -> np.ndarray:
    """sum_m phi(m) * (m-path Dirichlet Laplacian), truncated or exact.

    truncation is a positive integer M (partial sum; a supplied tail_rule
    adds the exact remainder 2*tail(M)*I, since every distance-m Laplacian
    has diagonal 2 and the off-diagonal pattern dies out once m exceeds the
    largest interior gap) or the string "analytic", which requires a
    tail_rule and returns the exact infinite sum.
    """
    t.check_summable()
    idx = np.asarray(spec.interior_indices)

    if truncation == "analytic":
        if t.tail_rule is None:
            raise ParameterError("analytic sum needs a tail_rule")
        A = _line_gap_matrix(idx, t.phi, None)
        np.fill_diagonal(A, 2.0 * t.tail_rule(0))
        return A

    if not (_is_int(truncation) and truncation >= 1):
        raise ParameterError(f"truncation must be an integer >= 1 or 'analytic', got {truncation!r}")
    M = int(truncation)
    A = _line_gap_matrix(idx, t.phi, M)
    diag = 2.0 * sum(t.phi(m) for m in range(1, M + 1))
    if t.tail_rule is not None:
        diag += 2.0 * t.tail_rule(M)
    np.fill_diagonal(A, diag)
    return A
