"""Penalty operators for the regularized inversion.

Besides the identity and the two classical second-difference matrices
(Dirichlet and Neumann flavors) this builds a graph Laplacian whose edge
weights come straight from the observed data: nearby samples with similar
values get strong edges, so the penalty is cheap to pay exactly where the
data says the signal is smooth.  A matched variant adds the diagonal
potential that puts a known anchor vector in the operator's kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteOperator, Grid, symmetric_toeplitz
from .errors import ParameterError, _finite, _finite_real, _is_int


@dataclass(frozen=True)
class SimilarityParams:
    """Neighborhood radius r (in lattice steps) and Gaussian width sigma.

    r must be an integer >= 1, and at most the data length, which
    ``similarity_weights`` checks; sigma a finite positive real whose
    square does not underflow to 0 (sigma above about 1.5e-162)."""

    r: int
    sigma: float

    def __post_init__(self):
        if not (_is_int(self.r) and self.r >= 1):
            raise ParameterError(f"radius r must be an integer >= 1, got {self.r!r}")
        if _finite_real("sigma", self.sigma) <= 0.0:
            raise ParameterError(f"sigma must be positive, got {self.sigma!r}")
        if not self.sigma * self.sigma > 0.0:  # the weights divide by sigma^2
            raise ParameterError(f"sigma must square to a positive number, got {self.sigma!r}")


def dirichlet_penalty(n: int) -> DiscreteOperator:
    """tridiag(-1, 2, -1)."""
    if not (_is_int(n) and n >= 2):
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")
    t = np.zeros(n)
    t[0], t[1] = 2.0, -1.0
    return DiscreteOperator(symmetric_toeplitz(t), Grid(n, "interior"))


def neumann_penalty(n: int) -> DiscreteOperator:
    """tridiag(-1, 2, -1) with the corner diagonal entries lowered to 1,
    so constants are in the kernel."""
    A = dirichlet_penalty(n).matrix  # a fresh array, no other operator holds it
    A[0, 0] = 1.0
    A[-1, -1] = 1.0
    return DiscreteOperator(A, Grid(n, "interior"))


def similarity_weights(g_eps: np.ndarray, p: SimilarityParams) -> np.ndarray:
    """W_ij = exp(-(g_i - g_j)^2 / sigma^2) for 0 < |i - j| <= r, else 0,
    for a data vector g with finite entries."""
    g = _finite("data", g_eps, (np.size(g_eps),))
    n = g.size
    if p.r > n:
        raise ParameterError(f"radius r={p.r} outside 1..{n}")
    i = np.arange(n)
    band = np.abs(i[:, None] - i[None, :]) <= p.r
    w = np.exp(-np.subtract.outer(g, g)[band] ** 2 / p.sigma**2)  # exp of the band alone
    W = np.zeros((n, n))
    W[band] = w
    np.fill_diagonal(W, 0.0)
    return W


def data_graph_laplacian(g_eps: np.ndarray, p: SimilarityParams) -> DiscreteOperator:
    """D - W with D the diagonal of row sums of the similarity weights.

    A sigma so small that every weight underflows to 0 would make the
    penalty the zero matrix, and the restoration unregularized; it is
    refused."""
    W = similarity_weights(g_eps, p)
    degree = W.sum(axis=1)
    if not degree.any():
        raise ParameterError(f"sigma={p.sigma!r} is too small: every similarity weight underflows to 0")
    A = np.diag(degree) - W
    return DiscreteOperator(A, Grid(W.shape[0], "interior"))


def kernel_matched_penalty(delta: DiscreteOperator, anchor: np.ndarray) -> DiscreteOperator:
    """delta + diag(kappa) with kappa_i = -(delta @ anchor)_i / anchor_i.

    The added potential is the minimal diagonal modification that makes the
    anchor an exact null vector of the result.  The anchor has one finite
    entry per node, none of them zero.
    """
    anchor = _finite("anchor", anchor, (delta.grid.n,))
    if np.any(anchor == 0.0):
        raise ParameterError("anchor has a zero entry")
    D = np.asarray(delta.matrix, dtype=float)
    kappa = -(D @ anchor) / anchor
    return DiscreteOperator(D + np.diag(kappa), delta.grid)
