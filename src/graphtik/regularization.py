"""Generalized Tikhonov solves and the oracle sweep over the weight grid.

min_f ||K f - g||^2 + w ||A f||^2 is defined by the normal equations
(K'K + w A'A) f = K'g; ``tikhonov_solve`` solves them by Cholesky (stacked
least squares if that misses the optimality bound), and ``filter_solution``
is the SVD shortcut for A = I.

The sweep evaluates a log grid of candidate parameters alpha, each applied
as the weight w = alpha^2, and returns the solution whose restoration error
against a supplied reference is smallest; this is the oracle rule used
throughout the experiments.  It does not factor K'K + w A'A per weight, and
its work falls into two stages (the GSVD filter-factor view: Paige &
Saunders 1981; Hansen 1998, where the pencil is factored once and each data
vector needs only a projection).

- The pencil stage, ``TikhonovPencil``, depends only on (K, A).  It takes
  one symmetric eigendecomposition of K'K + A'A and builds from it a basis V
  of the pencil (K'K, A'A), V'(K'K + A'A)V = I with V'A'AV diagonal, so
  every weight is a diagonal solve in V.  When K'K and A'A are both
  centrosymmetric (both forward operators, with the identity, a1 or a2
  penalty), the pencil splits into the half-size even and odd blocks of
  ``discretization._EvenOddSplit``; each block gets the same recipe, at
  about an eighth of the full-size cost, and V joins the two block bases.
  A data penalty (a3, matched) is not centrosymmetric and is one block.
  The eigenvalues mu of the second eigh of each block are the GSVD pairs
  of the pencil: v_i'A'Av_i = mu_i and v_i'K'Kv_i = 1 - mu_i (c^2 + s^2 =
  1), so no product with K or A gives them.  mu is clipped to [0, 1],
  where it lies in exact arithmetic.  The pencil also keeps the Frobenius
  products that bound ||K'K + w A'A||, from the unsplit K'K and A'A.
- The data stage, ``TikhonovProblem`` and ``alpha_sweep``, runs once per
  data vector: it checks the data, projects K'g, solves the whole grid as
  one batched product, certifies it and scores it.

Data vectors on the same (K, A), such as the noise seeds of one table
cell, share one pencil.  The caller holds it only as long as those vectors
last; nothing here caches it.

In the data stage one batched refinement step against the normal equations
follows the batched solve.  A column is certified when the next refinement
correction is at most 1e-8 times its distance to the reference, so its
error is settled far below any printed digit, and when its residual meets
the solver's optimality bound.  The other columns sit typically at the
ill-conditioned ends of the grid and in cells whose error curve is flat
below roundoff.  Each of them that could still be the minimum (its refined
distance to the reference, less the next correction, at most
``_FALLBACK_FACTOR`` times the best distance so far) falls back to
``tikhonov_solve`` and keeps the per-weight solve's value; the rest keep
their refined value in the curve, which is no candidate for the minimum.
So an ``IllPosedProblemError`` comes only from a column that was solved.
The returned curve keeps its (alpha, rre) format.

numpy and scipy wheels each bundle their own OpenBLAS, and each copy keeps
its own worker threads, which spin for a while after a call.  A
factorization in scipy's copy right after numpy's ``eigh`` or ``@`` shares
the cores with numpy's spinning workers and runs about twice as slow as on
its own, so every O(n^3) factorization of the package runs in numpy's
copy (the split solve of the table-1 image is ``np.linalg.solve`` too).
Here the fallback Cholesky is ``np.linalg.cholesky(M, upper=True)``, whose
factor has the bits of scipy's ``cho_factor``, and only the O(n^2)
triangular solves of ``sla.cho_solve`` stay in scipy's.  They take the
factor as its transpose, the lower factor in Fortran order, which f2py
passes to LAPACK without a copy; the solution keeps its bits.  Those solves
are the package's only use of ``scipy.linalg``, so it is imported on the
first fallback, not with this module: its import takes 0.2-0.35 s and
about 24 MB (2 cores), which ``import graphtik`` and the spectral
diagnostics no longer pay.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from numbers import Integral, Real

import numpy as np

from .discretization import DiscreteOperator, _EvenOddSplit
from .errors import ContractViolationError, IllPosedProblemError, ParameterError

__all__ = [
    "TikhonovPencil",
    "TikhonovProblem",
    "AlphaGrid",
    "RegularizedSolution",
    "tikhonov_solve",
    "filter_solution",
    "alpha_sweep",
]

_KERNEL_TOL = 1e-12  # relative floor for eigmin(K'K + A'A)

# An uncertified sweep column gets the per-weight solve only when its refined
# distance to the reference, less the next refinement correction, is at most
# this factor times the smallest distance among the certified and the
# already solved columns.  Where the refinement converges, the correction
# bounds how far the refined column is from the normal-equation solution;
# where it diverges (wide grids) the correction dwarfs the distance and the
# column is always solved.  On the table cells (tables 4-7, seeds 0-59) the
# per-weight RRE of an uncertified column was at most 2.5% from its refined
# RRE, and no column skipped under the factor 2 came closer than 2.2 times
# the chosen RRE.
_FALLBACK_FACTOR = 2.0


def _pencil_basis(KtK: np.ndarray, AtA: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, mu) with V'(K'K + A'A)V = I and V'A'AV = diag(mu), two eigh calls
    per block.

    When K'K and A'A are both centrosymmetric, the blocks are the even and
    odd blocks of ``_EvenOddSplit`` and V joins their bases; otherwise the
    pencil is one block.  The split's own test decides, one test per
    matrix: A'A is split first, so a data penalty, which fails it, costs
    one test.  The floor is checked on the eigenvalues of all blocks before
    any whitening.  mu are the eigenvalues of each block's second eigh,
    joined in the column order of V and clipped to [0, 1] (see
    ``TikhonovPencil``).  Each temporary is dropped once used up and W is
    whitened in place, because a build's transient arrays set the peak
    memory of an n = 1000 run.
    """
    try:
        pen = _EvenOddSplit(AtA)
        M = _EvenOddSplit(KtK)
    except ContractViolationError:
        eigs = [np.linalg.eigh(KtK + AtA)]
        penalties = [AtA]
    else:
        M.even += pen.even  # the blocks of K'K + A'A
        M.odd += pen.odd
        eigs = [np.linalg.eigh(M.even), np.linalg.eigh(M.odd)]
        penalties = [pen.even, pen.odd]
        del M, pen
    spectrum = np.concatenate([lam for lam, _ in eigs])
    if spectrum.min() <= _KERNEL_TOL * float(np.abs(spectrum).max()):
        raise IllPosedProblemError(
            "penalty and forward operator share a near-null direction"
        )
    bases, mus = [], []
    for (lam, W), AtA_block in zip(eigs, penalties):
        W /= np.sqrt(lam)  # whitened in place: W'MW = I
        mu, U = np.linalg.eigh(W.T @ AtA_block @ W)
        bases.append(W @ U)
        mus.append(mu)
    del eigs, penalties
    mu = np.clip(np.concatenate(mus), 0.0, 1.0)
    if len(bases) == 1:
        return bases[0], mu
    return _join_even_odd(*bases), mu


def _join_even_odd(V_even: np.ndarray, V_odd: np.ndarray) -> np.ndarray:
    """V = P diag(V_even, V_odd), P the even/odd change of basis.

    This is ``_from_even_odd`` applied to the columns of the block diagonal,
    written block by block into one array: with r = 1/sqrt(2), the top m
    rows are [r V_even[:m], r V_odd], the middle row of odd n is
    [V_even[m], 0], and the bottom m rows mirror the top ones, the odd
    columns negated.  The zero blocks are not added, which changes no value.
    """
    c, m = len(V_even), len(V_odd)
    n = c + m
    r = 1.0 / sqrt(2.0)
    V = np.empty((n, n))
    np.multiply(V_even[:m], r, out=V[:m, :c])
    np.multiply(V_odd, r, out=V[:m, c:])
    V[m:c, :c] = V_even[m:]
    V[m:c, c:] = 0.0
    V[c:, :c] = V[:m, :c][::-1]
    np.negative(V[:m, c:][::-1], out=V[c:, c:])
    return V


@dataclass(eq=False)
class TikhonovPencil:
    """The pencil stage: everything that depends on (K, A) and not on data.

    Construction rejects operators on different grids or with non-finite
    entries, then takes one symmetric eigendecomposition M = Q diag(lam) Q'
    of M = K'K + A'A per block: the even and the odd block when K'K and A'A
    are both centrosymmetric, else M itself.  It verifies that ker(penalty)
    and ker(forward) intersect trivially: the smallest eigenvalue of all
    blocks must clear a relative floor, otherwise no weight makes the
    normal equations solvable.  The same decompositions give the basis V
    used by ``alpha_sweep``: whitening each block by lam^(-1/2) and
    diagonalizing its whitened A'A yields V'MV = I with V'A'AV diagonal, so
    V simultaneously diagonalizes K'K + w A'A for every weight w.  The
    diagonal of V'A'AV is mu, the eigenvalues of the second eigh, and that
    of V'K'KV is 1 - mu, since the two add up to the identity; so neither
    needs a product with K or A.  mu is clipped to [0, 1], where it lies in
    exact arithmetic: roundoff puts it a few eps outside (down to -5e-15 on
    the a2 pencil at n = 100, up to 1 + 4e-15 at n = 1000), and the
    diagonal 1 - mu + w mu would then be 0 or negative at a large weight
    (mu < 0) or a tiny one (mu > 1).  A
    split basis is exact for the blocks of the averages (X + JXJ)/2, within
    the 1e-10 centrosymmetry test of the true ones; the sweep certifies and
    falls back against the unsplit K'K and A'A.  The pencil also keeps the
    three Frobenius products that give ||K'K + w A'A||_F.

    Every ``TikhonovProblem`` on the same (K, A) can share one pencil.  At
    n = 1000 it holds about 24 MB (K'K, A'A and V), so callers keep it only
    as long as its data vectors last instead of caching it.
    """

    forward: DiscreteOperator
    penalty: DiscreteOperator

    def __post_init__(self):
        if self.forward.grid != self.penalty.grid:
            raise ParameterError(
                "forward and penalty operators live on different grids"
            )
        K = np.asarray(self.forward.matrix, dtype=float)
        A = np.asarray(self.penalty.matrix, dtype=float)
        for name, x in (("forward operator", K), ("penalty operator", A)):
            if not np.all(np.isfinite(x)):
                raise ParameterError(f"{name} has non-finite entries")
        self._K, self._A = K, A
        self._KtK = KtK = K.T @ K
        self._AtA = AtA = A.T @ A
        # v_i'A'Av_i = mu_i and v_i'K'Kv_i = 1 - mu_i
        self._basis, self._mu = _pencil_basis(KtK, AtA)
        # ||K'K + w A'A||_F^2 = kk_f + 2 w ka_f + w^2 aa_f
        self._frobenius = (np.vdot(KtK, KtK), np.vdot(KtK, AtA), np.vdot(AtA, AtA))


@dataclass
class TikhonovProblem:
    """The data stage: a data vector on the pencil of (forward, penalty).

    Construction checks that the data is a finite vector on the grid, so a
    bad data vector costs no decomposition, and projects it to K'g.
    Without ``pencil`` it builds the pencil of (forward, penalty); a pencil
    passed in must have been built from these same operator objects, and
    its decomposition is reused as it is.
    """

    forward: DiscreteOperator
    penalty: DiscreteOperator
    data: np.ndarray
    pencil: TikhonovPencil | None = field(default=None, repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.forward.grid.n,):
            raise ParameterError("data length does not match the grid")
        if not np.all(np.isfinite(self.data)):
            raise ParameterError("data has non-finite entries")
        if self.pencil is None:
            self.pencil = TikhonovPencil(self.forward, self.penalty)
        elif self.pencil.forward is not self.forward or self.pencil.penalty is not self.penalty:
            raise ParameterError("pencil was built from other operators")
        self._Ktg = self.pencil._K.T @ self.data


@dataclass(frozen=True)
class AlphaGrid:
    """count log-spaced candidates from max down to min, endpoints included."""

    max: float = 1e3
    min: float = 1e-6
    count: int = 50

    def __post_init__(self):
        for name, value in (("max", self.max), ("min", self.min)):
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ParameterError(f"alpha_grid {name} must be a real number, got {value!r}")
            if not np.isfinite(value):
                raise ParameterError(f"alpha_grid {name} must be finite, got {value!r}")
        if not (self.max > self.min > 0.0):
            raise ParameterError("need max > min > 0")
        if not isinstance(self.count, Integral) or isinstance(self.count, bool):
            raise ParameterError(f"alpha_grid count must be an integer, got {self.count!r}")
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
    import scipy.linalg as sla  # only the fallback needs it (see the module notes)

    pen = p.pencil
    M = weight * pen._AtA
    M += pen._KtK
    norm_Ktg = float(np.linalg.norm(p._Ktg))

    def optimal(f):
        gap = float(np.linalg.norm(M @ f - p._Ktg))
        if gap <= 1e-8 * norm_Ktg:
            return True  # within the bound whatever ||M|| is
        return _optimal(gap, norm_Ktg, float(np.linalg.norm(M, "fro")), float(np.linalg.norm(f)))

    try:
        # numpy's upper factor has scipy cho_factor's bits; only the O(n^2)
        # triangular solves run in scipy's OpenBLAS (see the module notes).
        # U' is the Fortran-ordered lower factor, which f2py takes uncopied.
        U = np.linalg.cholesky(M, upper=True)
        f = sla.cho_solve((U.T, True), p._Ktg, check_finite=False)
        if optimal(f):
            return f
    except np.linalg.LinAlgError:
        pass
    # stacked least squares is slower but does not square the conditioning;
    # kept because Cholesky does fail on wide grids (test_lstsq_rescues_cell)
    K, A = pen._K, pen._A
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
    K, A = p.pencil._K, p.pencil._A
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


def alpha_sweep(p: TikhonovProblem, grid: AlphaGrid, reference: np.ndarray):
    """Solve at every grid point, score by RRE against the reference.

    Each grid value alpha enters the normal equations as the weight
    w = alpha^2 (a standard-deviation-style parameter).  Returns (best
    solution, curve) where curve is the list of (alpha, rre) in grid order
    and ties go to the smallest alpha.

    This is the per-data half of the work; everything that depends only on
    (K, A) comes from ``p.pencil``.  All weights are solved at once in the
    pencil basis V: with D[i, j] = v_i'K'Kv_i + w_j v_i'A'Av_i = 1 - mu_i +
    w_j mu_i, column j is V((V'K'g) / D[:, j]).  One batched refinement step
    against the normal equations follows.  A column is certified when the
    next refinement correction is at most 1e-8 ||f - reference|| (so its RRE
    is settled far below any printed digit) and its residual meets the
    optimality bound of ``tikhonov_solve``.  Every column is scored from the
    refined solve first.  The uncertified columns are then visited in
    ascending order of that score, and ``tikhonov_solve`` replaces a column
    only if it could still be the minimum: ||f - reference|| less the next
    correction must be at most ``_FALLBACK_FACTOR`` times the smallest
    ||f - reference|| of the certified and already solved columns.  A skipped
    column keeps its refined score in the curve; it is at least that factor
    above the chosen one.  ``IllPosedProblemError`` comes only from a column
    that was solved.  Each column is scored as ``metrics.rre`` defines it,
    with the reference checked and its norm taken once for the whole grid.
    """
    reference = np.asarray(reference, dtype=float)
    if reference.shape != p.data.shape or not np.all(np.isfinite(reference)):
        raise ParameterError("reference must be a finite vector on the grid")
    norm_ref = np.linalg.norm(reference)
    if norm_ref == 0.0:
        raise ParameterError("reference vector is zero")
    alphas = grid.values
    weights = alphas**2
    pen = p.pencil
    KtK, AtA, V, Ktg = pen._KtK, pen._AtA, pen._basis, p._Ktg
    mu = pen._mu[:, None]
    D = (1.0 - mu) + mu * weights

    def residual(F):
        return Ktg[:, None] - KtK @ F - (AtA @ F) * weights

    def correction(R):
        return V @ ((V.T @ R) / D)

    F = V @ ((V.T @ Ktg)[:, None] / D)
    F += correction(residual(F))
    R = residual(F)
    step = np.linalg.norm(correction(R), axis=0)
    norm_f = np.linalg.norm(F, axis=0)
    kk_f, ka_f, aa_f = pen._frobenius
    norm_M = np.sqrt(kk_f + 2.0 * weights * ka_f + weights**2 * aa_f)
    ok = _optimal(np.linalg.norm(R, axis=0), float(np.linalg.norm(Ktg)), norm_M, norm_f)
    ok &= step <= 1e-8 * np.linalg.norm(F - reference[:, None], axis=0)
    sols = np.ascontiguousarray(F.T)
    # metrics.rre column by column, with the same operations in the same order
    # (for a 1-D float64 vector numpy's norm is sqrt(x.dot(x)))
    dist = np.sqrt([d.dot(d) for d in sols - reference])
    best_dist = dist[ok].min(initial=np.inf)
    uncertified = np.flatnonzero(~ok)
    for j in uncertified[np.argsort(dist[uncertified], kind="stable")]:
        if dist[j] - step[j] > _FALLBACK_FACTOR * best_dist:
            continue  # cannot be the minimum: keeps its refined value
        sols[j] = tikhonov_solve(p, float(weights[j])).solution
        d = sols[j] - reference
        dist[j] = np.sqrt(d.dot(d))
        best_dist = min(best_dist, dist[j])
    errs = dist / norm_ref
    curve = [(float(a), float(e)) for a, e in zip(alphas, errs)]
    tied = np.flatnonzero(errs == errs.min())
    best = min(tied, key=lambda i: alphas[i])
    f = sols[best]
    return (
        RegularizedSolution(
            solution=f,
            alpha=float(alphas[best]),  # the grid value, not the applied weight
            residual_norm=float(np.linalg.norm(pen._K @ f - p.data)),
            penalty_norm=float(np.linalg.norm(pen._A @ f)),
            rre=float(errs[best]),
        ),
        curve,
    )
