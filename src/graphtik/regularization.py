"""Generalized Tikhonov solves and the oracle sweep over the weight grid.

min_f ||K f - g||^2 + w ||A f||^2 is defined by the normal equations
(K'K + w A'A) f = K'g; ``tikhonov_solve`` solves them by Cholesky (stacked
least squares if that misses the optimality bound), and ``filter_solution``
is the SVD shortcut for A = I.

The sweep evaluates a log grid of candidate parameters and returns the
solution whose restoration error against a supplied reference is smallest;
this is the oracle rule used throughout the experiments.  It does not
factor K'K + w A'A per weight.  ``TikhonovProblem`` takes one symmetric
eigendecomposition of K'K + A'A and builds from it a basis V of the pencil
(K'K, A'A), V'(K'K + A'A)V = I with V'A'AV diagonal (the GSVD filter-factor
view: Paige & Saunders 1981; Hansen 1998), so every weight is a diagonal
solve in V and the whole grid is one batched product.  One batched
refinement step against the normal equations follows.  A column is
certified when the next refinement correction is at most 1e-8 times its
distance to the reference, so its error is settled far below any printed
digit, and when its residual meets the solver's optimality bound.  Every
other column, typically at the ill-conditioned ends of the grid and in
cells whose error curve is flat below roundoff, falls back to
``tikhonov_solve``, so it keeps the per-weight solve's value.  The returned
curve keeps its (alpha, rre) format.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .discretization import DiscreteOperator
from .errors import IllPosedProblemError, ParameterError
from .metrics import rre

__all__ = [
    "TikhonovProblem",
    "AlphaGrid",
    "RegularizedSolution",
    "tikhonov_solve",
    "filter_solution",
    "alpha_sweep",
]

_KERNEL_TOL = 1e-12  # relative floor for eigmin(K'K + A'A)


@dataclass
class TikhonovProblem:
    """Forward operator, penalty operator and a data vector on one grid.

    Construction rejects non-finite operators or data, then takes one
    symmetric eigendecomposition M = Q diag(lam) Q' of M = K'K + A'A.  It
    verifies that ker(penalty) and ker(forward) intersect trivially: the
    smallest eigenvalue must clear a relative floor, otherwise no weight
    makes the normal equations solvable.  The same decomposition gives the
    pencil basis V used by ``alpha_sweep``: whitening by lam^(-1/2) and
    diagonalizing the whitened A'A yields V'MV = I with V'A'AV diagonal,
    so V simultaneously diagonalizes K'K + w A'A for every weight w.
    """

    forward: DiscreteOperator
    penalty: DiscreteOperator
    data: np.ndarray

    def __post_init__(self):
        if self.forward.grid != self.penalty.grid:
            raise ParameterError(
                "forward and penalty operators live on different grids"
            )
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.forward.grid.n,):
            raise ParameterError("data length does not match the grid")
        K = np.asarray(self.forward.matrix, dtype=float)
        A = np.asarray(self.penalty.matrix, dtype=float)
        for name, x in (("forward operator", K), ("penalty operator", A), ("data", self.data)):
            if not np.all(np.isfinite(x)):
                raise ParameterError(f"{name} has non-finite entries")
        self._KtK = K.T @ K
        self._AtA = A.T @ A
        self._Ktg = K.T @ self.data
        lam, Q = np.linalg.eigh(self._KtK + self._AtA)
        if lam[0] <= _KERNEL_TOL * float(np.abs(lam).max()):
            raise IllPosedProblemError(
                "penalty and forward operator share a near-null direction"
            )
        W = Q / np.sqrt(lam)
        _, U = np.linalg.eigh(W.T @ self._AtA @ W)
        self._basis = W @ U


@dataclass(frozen=True)
class AlphaGrid:
    """count log-spaced candidates from max down to min, endpoints included."""

    max: float = 1e3
    min: float = 1e-6
    count: int = 50

    def __post_init__(self):
        if not (self.max > self.min > 0.0):
            raise ParameterError("need max > min > 0")
        if self.count < 1:
            raise ParameterError("need count >= 1")

    @property
    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.max])
        return np.logspace(np.log10(self.max), np.log10(self.min), self.count)


@dataclass
class RegularizedSolution:
    solution: np.ndarray
    alpha: float
    residual_norm: float  # ||K f - g||
    penalty_norm: float  # ||A f||
    rre: float | None = None


def _optimal(gap, norm_Ktg, norm_M, norm_f):
    """Whether a normal-equation residual norm meets the optimality bound.

    The bound is 1e-8 relative to the gradient data, plus the
    backward-error floor eps*||M||*||f|| below which no float64 solve can
    push the computed residual (the weight grid spans 18 decades, so
    cond(M) routinely exceeds 1e10 at the edges).  Works elementwise on
    arrays of columns.
    """
    eps = np.finfo(float).eps
    return gap <= 1e-8 * norm_Ktg + 128.0 * eps * norm_M * norm_f


def _solve_normal_equations(p: TikhonovProblem, weight: float) -> np.ndarray:
    M = p._KtK + weight * p._AtA
    norm_M = float(np.linalg.norm(M, "fro"))
    norm_Ktg = float(np.linalg.norm(p._Ktg))

    def optimal(f):
        gap = float(np.linalg.norm(M @ f - p._Ktg))
        return _optimal(gap, norm_Ktg, norm_M, float(np.linalg.norm(f)))

    try:
        c, low = sla.cho_factor(M, check_finite=False)
        f = sla.cho_solve((c, low), p._Ktg, check_finite=False)
        if optimal(f):
            return f
    except sla.LinAlgError:
        pass
    # stacked least squares is slower but does not square the conditioning
    K = np.asarray(p.forward.matrix, dtype=float)
    A = np.asarray(p.penalty.matrix, dtype=float)
    top = np.vstack([K, np.sqrt(weight) * A])
    rhs = np.concatenate([p.data, np.zeros(A.shape[0])])
    f = np.linalg.lstsq(top, rhs, rcond=None)[0]
    if not optimal(f):
        raise IllPosedProblemError(
            f"normal equations unsolvable to tolerance at weight {weight:g}"
        )
    return f


def tikhonov_solve(p: TikhonovProblem, alpha: float) -> RegularizedSolution:
    """Minimizer of ||K f - g||^2 + alpha ||A f||^2, alpha the direct weight."""
    if not (alpha > 0.0):
        raise ParameterError("alpha must be positive")
    f = _solve_normal_equations(p, alpha)
    K = np.asarray(p.forward.matrix, dtype=float)
    A = np.asarray(p.penalty.matrix, dtype=float)
    return RegularizedSolution(
        solution=f,
        alpha=float(alpha),
        residual_norm=float(np.linalg.norm(K @ f - p.data)),
        penalty_norm=float(np.linalg.norm(A @ f)),
    )


def filter_solution(svd, g: np.ndarray, alpha: float) -> np.ndarray:
    """Identity-penalty solution from a precomputed SVD of K.

    Coefficients are s_i / (s_i^2 + alpha) against the left singular basis,
    i.e. the spectral filter t^2/(t^2 + alpha) applied to the naive inverse.
    """
    if not (alpha > 0.0):
        raise ParameterError("alpha must be positive")
    U, s, Vt = svd
    g = np.asarray(g, dtype=float)
    coef = s / (s**2 + alpha) * (U.T @ g)
    return Vt.T @ coef


def alpha_sweep(
    p: TikhonovProblem,
    grid: AlphaGrid,
    reference: np.ndarray,
    weight_rule: str = "squared",
):
    """Solve at every grid point, score by RRE against the reference.

    weight_rule "squared" passes alpha^2 as the normal-equation weight
    (each grid value acts like a standard-deviation-style parameter),
    "direct" passes alpha itself.  Returns (best solution, curve) where
    curve is the list of (alpha, rre) in grid order and ties go to the
    smallest alpha.

    All weights are solved at once in the problem's pencil basis V: with
    D[i, j] = v_i'K'Kv_i + w_j v_i'A'Av_i, column j is V((V'K'g) / D[:, j]).
    One batched refinement step against the normal equations follows.  A
    column is certified when the next refinement correction is at most
    1e-8 ||f - reference|| (so its RRE is settled far below any printed
    digit) and its residual meets the optimality bound of
    ``tikhonov_solve``; every other column is solved by ``tikhonov_solve``.
    """
    if weight_rule not in ("squared", "direct"):
        raise ParameterError(f"unknown weight rule {weight_rule!r}")
    reference = np.asarray(reference, dtype=float)
    if reference.shape != p.data.shape or not np.all(np.isfinite(reference)):
        raise ParameterError("reference must be a finite vector on the grid")
    alphas = grid.values
    weights = alphas**2 if weight_rule == "squared" else alphas
    KtK, AtA, Ktg, V = p._KtK, p._AtA, p._Ktg, p._basis
    K = np.asarray(p.forward.matrix, dtype=float)
    A = np.asarray(p.penalty.matrix, dtype=float)
    kk = np.sum((K @ V) ** 2, axis=0)  # v_i'K'Kv_i
    aa = np.sum((A @ V) ** 2, axis=0)  # v_i'A'Av_i
    D = kk[:, None] + aa[:, None] * weights

    def residual(F):
        return Ktg[:, None] - KtK @ F - (AtA @ F) * weights

    def correction(R):
        return V @ ((V.T @ R) / D)

    F = V @ ((V.T @ Ktg)[:, None] / D)
    F += correction(residual(F))
    R = residual(F)
    step = np.linalg.norm(correction(R), axis=0)
    norm_f = np.linalg.norm(F, axis=0)
    # ||K'K + w A'A||_F from the three Frobenius inner products
    kk_f, ka_f, aa_f = np.sum(KtK * KtK), np.sum(KtK * AtA), np.sum(AtA * AtA)
    norm_M = np.sqrt(kk_f + 2.0 * weights * ka_f + weights**2 * aa_f)
    ok = _optimal(np.linalg.norm(R, axis=0), float(np.linalg.norm(Ktg)), norm_M, norm_f)
    ok &= step <= 1e-8 * np.linalg.norm(F - reference[:, None], axis=0)
    sols = np.ascontiguousarray(F.T)
    for j in np.flatnonzero(~ok):
        sols[j] = tikhonov_solve(p, float(weights[j])).solution
    errs = np.array([rre(f, reference) for f in sols])
    curve = [(float(a), float(e)) for a, e in zip(alphas, errs)]
    tied = np.flatnonzero(errs == errs.min())
    best = min(tied, key=lambda i: alphas[i])
    f = sols[best]
    return (
        RegularizedSolution(
            solution=f,
            alpha=float(alphas[best]),  # the grid value, not the applied weight
            residual_norm=float(np.linalg.norm(K @ f - p.data)),
            penalty_norm=float(np.linalg.norm(A @ f)),
            rre=float(errs[best]),
        ),
        curve,
    )
