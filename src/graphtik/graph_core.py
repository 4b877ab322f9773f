"""Graph Laplacians with node potentials, and their long-range path variants.

A graph here is a weighted symmetric adjacency plus a per-node potential.
On top of the plain Laplacian D - W + diag(kappa) this module builds the
m-path Dirichlet Laplacians of a node subset (edges replaced by "is at
combinatorial distance m", with outside neighbors folded into a boundary
potential) and their phi-weighted sums over all m.  For the integer-line
graph everything has a closed form and the infinite ambient set is never
materialized.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    InsufficientSpecificationError,
    InvalidGraphError,
    ParameterError,
    UnsupportedGraphError,
)

__all__ = [
    "Graph",
    "IntegerLine",
    "INTEGER_LINE",
    "DirichletSubsetSpec",
    "PathTransform",
    "alternating_inverse_square_transform",
    "line_interior",
    "laplacian_matrix",
    "combinatorial_distance",
    "m_path_dirichlet_laplacian",
    "transformed_path_laplacian",
]


@dataclass(frozen=True)
class Graph:
    """Finite weighted graph with a node potential.

    nodes: coordinates, used for labeling only.
    weights: map (i, j) -> w >= 0.  One-sided entries are mirrored; a pair
        given twice must agree.  Diagonal entries must be zero.
    potential: kappa(x_i) per node, defaults to zeros.
    """

    nodes: tuple
    weights: Mapping
    potential: tuple = ()

    def n_nodes(self) -> int:
        return len(self.nodes)

    def potential_vector(self) -> np.ndarray:
        if len(self.potential) == 0:
            return np.zeros(self.n_nodes())
        return np.asarray(self.potential, dtype=float)

    def weight_matrix(self) -> np.ndarray:
        n = self.n_nodes()
        W = np.zeros((n, n))
        seen = np.zeros((n, n), dtype=bool)
        for (i, j), w in self.weights.items():
            w = float(w)
            if w < 0.0:
                raise InvalidGraphError(f"negative weight {w!r} at ({i}, {j})")
            if i == j:
                if w != 0.0:
                    raise InvalidGraphError(f"nonzero diagonal weight at node {i}")
                continue
            if seen[i, j] and W[i, j] != w:
                raise InvalidGraphError(f"conflicting weights for edge ({i}, {j})")
            W[i, j] = w
            seen[i, j] = True
        # pairs given from both sides must agree; one-sided entries mirror
        both = seen & seen.T
        if not np.array_equal(W[both], W.T[both]):
            raise InvalidGraphError("asymmetric weight map")
        return np.maximum(W, W.T)


class IntegerLine:
    """Marker for the implicit unweighted path graph on all integers.

    Nodes are the integers, edges join i and i+1, the potential is zero.
    Only finite interior subsets of it are ever turned into matrices, so the
    ambient graph is represented by this sentinel alone.
    """

    def __repr__(self) -> str:  # pragma: no cover
        return "INTEGER_LINE"


INTEGER_LINE = IntegerLine()


@dataclass(frozen=True)
class DirichletSubsetSpec:
    """A proper node subset of an ambient graph, by index.

    For INTEGER_LINE ambient the indices are integer node labels; any finite
    set is a proper subset.  For a finite ambient Graph the subset must be
    nonempty and proper.
    """

    ambient: object
    interior_indices: tuple

    def __post_init__(self):
        if len(self.interior_indices) == 0:
            raise InvalidGraphError("empty interior subset")
        if isinstance(self.ambient, Graph):
            if len(self.interior_indices) >= self.ambient.n_nodes():
                raise InvalidGraphError("interior subset must be proper")

    @property
    def is_line(self) -> bool:
        return isinstance(self.ambient, IntegerLine)


def line_interior(n: int) -> DirichletSubsetSpec:
    """The subset {1, ..., n} of the integer line."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return DirichletSubsetSpec(INTEGER_LINE, tuple(range(1, n + 1)))


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


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Dense Laplacian D - W + diag(kappa)."""
    W = g.weight_matrix()
    kappa = g.potential_vector()
    if kappa.shape != (g.n_nodes(),):
        raise InvalidGraphError("potential length does not match node count")
    return np.diag(W.sum(axis=1)) - W + np.diag(kappa)


def _distance_table(W: np.ndarray, starts) -> np.ndarray:
    """BFS edge-path lengths from each start node to every node (inf when
    unreachable), one row per start; edges are the positive weights."""
    n = W.shape[0]
    adj = [np.nonzero(W[k] > 0.0)[0] for k in range(n)]
    table = np.full((len(starts), n), np.inf)
    for row, start in zip(table, starts):
        row[start] = 0
        queue = deque([start])
        while queue:
            k = queue.popleft()
            for nb in adj[k]:
                if row[nb] == np.inf:
                    row[nb] = row[k] + 1
                    queue.append(nb)
    return table


def combinatorial_distance(g: Graph, i: int, j: int) -> float:
    """Shortest edge-path length between nodes i and j; inf if disconnected."""
    return float(_distance_table(g.weight_matrix(), [i])[0, j])


def _finite_graph_distances(spec: DirichletSubsetSpec):
    """(interior x all) distance table for a finite unweighted ambient graph."""
    W = spec.ambient.weight_matrix()
    vals = W[W > 0.0]
    if vals.size and not np.all(vals == 1.0):
        raise UnsupportedGraphError("m-path Laplacians are defined for unweighted graphs")
    return _distance_table(W, [int(i) for i in spec.interior_indices])


def _m_path_from_distances(dist: np.ndarray, idx: np.ndarray, m: int) -> np.ndarray:
    """Distance-m Dirichlet Laplacian from an (interior x all) distance table:
    -1 between interior nodes at distance m, and on the diagonal the count of
    all ambient nodes at distance m (outside ones are the boundary potential)."""
    A = np.where(dist[:, idx] == m, -1.0, 0.0)
    np.fill_diagonal(A, 0.0)
    return A + np.diag((dist == m).sum(axis=1).astype(float))


def m_path_dirichlet_laplacian(spec: DirichletSubsetSpec, m: int) -> np.ndarray:
    """The distance-m Laplacian on the subset, outside neighbors as potential.

    Off-diagonal (i, j) is -1 exactly when the interior nodes sit at
    combinatorial distance m in the ambient graph; the diagonal counts all
    ambient nodes at distance m (inside ones from the difference part,
    outside ones as the Dirichlet boundary potential).
    """
    if m < 1:
        raise ParameterError("m must be a positive integer")
    idx = np.asarray(spec.interior_indices)
    if spec.is_line:
        # every integer has exactly two nodes at distance m, so diag is 2
        gap = np.abs(idx[:, None] - idx[None, :])
        A = np.where(gap == m, -1.0, 0.0)
        np.fill_diagonal(A, 2.0)
        return A
    return _m_path_from_distances(_finite_graph_distances(spec), idx, m)


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

    truncation is a positive integer M (partial sum; on the line graph a
    supplied tail_rule adds the exact remainder 2*tail(M)*I, since every
    distance-m Laplacian there has diagonal 2 and the off-diagonal pattern
    dies out once m exceeds the largest interior gap) or the string
    "analytic", which requires the line graph and a tail_rule and returns
    the exact infinite sum.
    """
    t.check_summable()
    idx = np.asarray(spec.interior_indices)

    if truncation == "analytic":
        if not spec.is_line:
            raise InsufficientSpecificationError(
                "analytic sum is only available on the integer line"
            )
        if t.tail_rule is None:
            raise InsufficientSpecificationError("analytic sum needs a tail_rule")
        A = _line_gap_matrix(idx, t.phi, None)
        np.fill_diagonal(A, 2.0 * t.tail_rule(0))
        return A

    M = int(truncation)
    if M < 1:
        raise ParameterError("truncation must be >= 1 or 'analytic'")
    if spec.is_line:
        A = _line_gap_matrix(idx, t.phi, M)
        diag = 2.0 * sum(t.phi(m) for m in range(1, M + 1))
        if t.tail_rule is not None:
            diag += 2.0 * t.tail_rule(M)
        np.fill_diagonal(A, diag)
        return A

    dist = _finite_graph_distances(spec)
    A = np.zeros((idx.size, idx.size))
    finite = dist[np.isfinite(dist)]
    m_max = int(finite.max()) if finite.size else 0
    for m in range(1, min(M, m_max) + 1):
        A += t.phi(m) * _m_path_from_distances(dist, idx, m)
    return A
