"""Generalized Tikhonov solves and the oracle sweep over the weight grid.

min_f ||K f - g||^2 + w ||A f||^2 is defined by the normal equations
(K'K + w A'A) f = K'g.  The two direct solvers take the weight w itself,
which for a grid value alpha is w = alpha^2: ``tikhonov_solve(problem,
weight)`` returns the minimizer, by Cholesky (stacked least squares if that
misses the optimality bound), and ``filter_solution(svd, g, weight)`` is the
SVD shortcut for A = I.

The sweep evaluates a log grid of candidate parameters alpha, each applied
as the weight w = alpha^2, and returns the solution whose restoration error
against a supplied reference is smallest; this is the oracle rule used
throughout the experiments.  It does not factor K'K + w A'A per weight, and
its work falls into two stages (the GSVD filter-factor view: Paige &
Saunders 1981; Hansen 1998, where the pencil is factored once and each data
vector needs only a projection).

- The pencil stage, ``TikhonovPencil``, depends only on (K, A).  It builds
  a basis V of the pencil (K'K, A'A), V'(K'K + A'A)V = I with V'A'AV =
  diag(mu), so every weight is a diagonal solve in V.  ``_pencil_basis``
  states the recipe (one Cholesky factorization and one eigh per even or
  odd block), and ``_KERNEL_TOL`` the well-posedness floor on the Cholesky
  pivots; ``TikhonovPencil`` states what else the pencil keeps.
- The data stage, ``TikhonovProblem(pencil, data)`` and ``alpha_sweep``,
  runs once per data vector: it checks the data, projects K'g, solves the
  whole grid as one batched product, certifies it and scores it.  Only the
  sweep makes a ``RegularizedSolution``.

Data vectors on the same (K, A), such as the noise seeds of one table
cell, share one pencil.  The caller holds it only as long as those vectors
last; nothing here caches it.

Which sweep columns are certified, and which of the others fall back to
``tikhonov_solve``, is stated once, in ``alpha_sweep``.

numpy and scipy each bundle an OpenBLAS whose workers spin after a call,
so a factorization in one copy right after a call in the other runs about
twice as slow.  Every O(n^3) call here is therefore numpy's (R^-1 is
``_upper_inverse``, as numpy has no ``trtri``); only the fallback's O(n^2)
``cho_solve`` is scipy's, imported on first use.  Timings: ``CHANGES.md``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import discretization  # _is_centrosymmetric by module, which a test can patch
from .discretization import DiscreteOperator, _even_odd_split, _join_even_odd
from .errors import NumericalFailure, ParameterError, _finite, _finite_real, _is_int

# Relative floor for the Cholesky pivots of K'K + A'A = R'R: the pencil is
# rejected when a block's factorization fails or min R_ii^2 <= _KERNEL_TOL *
# max R_ii^2 over all its blocks.  Every pivot R_ii^2 is a diagonal entry of
# a Schur complement of its block, so it lies in [eigmin, eigmax] of the
# block, and the floor is one-sided: it rejects only pencils that the floor
# eigmin <= _KERNEL_TOL * eigmax on the eigenvalues rejects too.  A near-null
# direction that no pivot shows passes it; the sweep's certification and
# its per-weight fallback then meet the conditioning column by column.
_KERNEL_TOL = 1e-12

# Rows of a triangular block that _upper_inverse hands to np.linalg.inv
# instead of halving further; with it the blocked inverse costs little
# beside the block's eigh (timings in CHANGES.md).
_TRIANGULAR_BLOCK = 64

# The factor of alpha_sweep's fallback rule; 2 leaves a wide margin over the
# largest gap measured between a column's refined and per-weight errors on
# the table cells (CHANGES.md).
_FALLBACK_FACTOR = 2.0


def _pencil_basis(KtK: np.ndarray, AtA: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, mu) with V'(K'K + A'A)V = I and V'A'AV = diag(mu), one Cholesky
    factorization and one eigh per block.

    When K'K and A'A are both centrosymmetric, the blocks are their
    ``_even_odd_split`` and ``_join_even_odd`` joins the block bases;
    otherwise the pencil is one block.  ``_is_centrosymmetric`` decides,
    one test per matrix and A'A first, so a data penalty, which fails it,
    costs one test; the split then runs without a second one.  Each block
    M_b of K'K + A'A is factored M_b = R'R, and the pivot floor
    ``_KERNEL_TOL`` is checked on the pivots R_ii^2 of all blocks before
    any whitening.  Then, block by block, W = R^-1
    (``_upper_inverse``, in place of R) whitens the block of A'A,
    W'A'A_bW = U diag(mu) U', and the block basis is WU (the
    symmetric-definite reduction of Martin & Wilkinson 1968, LAPACK
    ``sygst``).  eigh reads one triangle of
    W'A'A_bW, and the two computed triangles differ by roundoff; it is
    given their average.  Summed over the 20-seed pass of tables 4-7 and
    over the n = 1000 cells of seeds 0-11, the average leaves fewer sweep
    columns to the fallback solve than one triangle, though not at every
    seed (counts in ``CHANGES.md``).  mu are joined in the column order of V and clipped to [0, 1]
    (see ``TikhonovPencil``).  Each temporary is dropped once used up,
    because a build's transient arrays set the peak memory of an n = 1000
    run.
    """
    if discretization._is_centrosymmetric(AtA) and discretization._is_centrosymmetric(KtK):
        penalties = list(_even_odd_split(AtA))
        blocks = list(_even_odd_split(KtK))
        for block, pen in zip(blocks, penalties):
            block += pen  # the blocks of K'K + A'A
        del block, pen
    else:
        blocks, penalties = [KtK + AtA], [AtA]
    try:
        factors = [np.linalg.cholesky(block, upper=True) for block in blocks]
        pivots = np.concatenate([np.diagonal(R) for R in factors]) ** 2
        ill_posed = pivots.min() <= _KERNEL_TOL * pivots.max()
    except np.linalg.LinAlgError:  # not positive definite to working precision
        ill_posed = True
    if ill_posed:
        raise NumericalFailure(
            "penalty and forward operator share a near-null direction"
        )
    del blocks
    bases, mus = [], []
    while factors:
        W = _upper_inverse(factors.pop(0))  # R is overwritten by R^-1
        C = W.T @ penalties.pop(0) @ W
        C += C.T  # eigh reads one triangle: average the two computed ones
        C *= 0.5
        mu, U = np.linalg.eigh(C)
        del C
        bases.append(W @ U)
        mus.append(mu)
        del W, U
    mu = np.clip(np.concatenate(mus), 0.0, 1.0)
    if len(bases) == 1:
        return bases[0], mu
    return _join_even_odd(*bases), mu


def _upper_inverse(R: np.ndarray) -> np.ndarray:
    """R^-1 for an upper triangular R with a nonzero diagonal, written over R.

    numpy has no triangular inverse, so R = [[R11, R12], [0, R22]] is
    inverted by recursive 2x2 blocking: R11 and R22 in place, then
    R12 <- -R11^-1 R12 R22^-1, two GEMMs in numpy's OpenBLAS.  A block of at
    most ``_TRIANGULAR_BLOCK`` rows is ``np.linalg.inv``, whose LU takes no
    row swap on a triangular matrix (the entries below the pivot are zero),
    so it is a back substitution and its inverse is upper triangular too.
    Returns R.
    """
    n = len(R)
    if n <= _TRIANGULAR_BLOCK:
        R[...] = np.linalg.inv(R)
        return R
    k = n // 2
    X11, X12, X22 = _upper_inverse(R[:k, :k]), R[:k, k:], _upper_inverse(R[k:, k:])
    np.matmul(X11 @ X12, X22, out=X12)
    np.negative(X12, out=X12)
    return R


def _gram(A: np.ndarray) -> np.ndarray:
    """A'A, written from A's three diagonals when A is tridiagonal.

    A is tridiagonal when its nonzero entries are all on the diagonals
    l = A[i+1, i], d = A[i, i] and u = A[i, i+1] (one O(n^2) count, no
    temporary).  Then A'A is pentadiagonal: d_j^2 + u_(j-1)^2 + l_j^2 on the
    diagonal, d_j u_j + l_j d_(j+1) next to it and l_j u_(j+1) two off, so
    the O(n^3) product is not needed.  The identity, a1 and a2 penalties
    have small integer entries, for which every sum is exact: the result has
    the bits of ``A.T @ A`` (a test checks it).  Any other A is ``A.T @ A``.
    """
    d, u, l = np.diagonal(A), np.diagonal(A, 1), np.diagonal(A, -1)
    if np.count_nonzero(A) != np.count_nonzero(d) + np.count_nonzero(u) + np.count_nonzero(l):
        return A.T @ A
    G = np.zeros(A.shape)
    main = d * d
    main[1:] += u * u
    main[:-1] += l * l
    np.fill_diagonal(G, main)
    for k, band in ((1, d[:-1] * u + l * d[1:]), (2, l[:-1] * u[1:])):
        np.fill_diagonal(G[:, k:], band)
        np.fill_diagonal(G[k:], band)
    return G


@dataclass(eq=False)
class TikhonovPencil:
    """The pencil stage: everything that depends on (K, A) and not on data.

    Construction rejects operators on different grids or with non-finite
    entries, then forms K'K and A'A; a tridiagonal A (identity, a1, a2)
    gets A'A from its three diagonals (``_gram``), with the bits of
    ``A.T @ A``.  ``_pencil_basis`` builds the basis V used by
    ``alpha_sweep``, with V'(K'K + A'A)V = I and V'A'AV = diag(mu), so V
    diagonalizes K'K + w A'A for every weight w; it raises
    ``NumericalFailure`` when its pivots fail the floor
    ``_KERNEL_TOL``, i.e. when ker(penalty) and ker(forward) meet and no
    weight makes the normal equations solvable.  The diagonal of V'A'AV is
    mu, and that of V'K'KV is 1 - mu, since the two add up to the identity;
    so neither needs a product with K or A.  mu is clipped to [0, 1], where
    it lies in exact arithmetic: roundoff puts it a few eps outside (down
    to -5e-15 on the a2 pencil at n = 100, up to 1 + 4e-15 at n = 1000),
    and the diagonal 1 - mu + w mu would then be 0 or negative at a large
    weight (mu < 0) or a tiny one (mu > 1).  A split basis is exact for the
    blocks of the averages (X + JXJ)/2, within the 1e-10 centrosymmetry
    test of the true ones; the sweep certifies and falls back against the
    unsplit K'K and A'A.  The pencil also keeps the three Frobenius
    products that give ||K'K + w A'A||_F (``_frobenius_norm``).

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
        self._K = K = _finite("forward operator", self.forward.matrix)
        self._A = A = _finite("penalty operator", self.penalty.matrix)
        self._KtK = KtK = K.T @ K
        self._AtA = AtA = _gram(A)
        # v_i'A'Av_i = mu_i and v_i'K'Kv_i = 1 - mu_i
        self._basis, self._mu = _pencil_basis(KtK, AtA)
        # ||K'K + w A'A||_F^2 = kk_f + 2 w ka_f + w^2 aa_f
        self._frobenius = (np.vdot(KtK, KtK), np.vdot(KtK, AtA), np.vdot(AtA, AtA))


@dataclass
class TikhonovProblem:
    """The data stage: a data vector on a pencil.

    Construction checks that the data is a finite vector on the pencil's
    grid, so a bad data vector costs no product, and projects it to K'g;
    the pencil's decomposition is reused as it is.
    """

    pencil: TikhonovPencil = field(repr=False)
    data: np.ndarray

    def __post_init__(self):
        self.data = _finite("data", self.data, (self.pencil.forward.grid.n,))
        self._Ktg = self.pencil._K.T @ self.data


@dataclass(frozen=True)
class AlphaGrid:
    """count log-spaced candidates from max down to min, endpoints included."""

    max: float = 1e3
    min: float = 1e-6
    count: int = 50

    def __post_init__(self):
        # stored as the field types, so that max=100 and max=100.0 hash alike
        for name in ("max", "min"):
            object.__setattr__(self, name, _finite_real(f"alpha_grid {name}", getattr(self, name)))
        if not (self.max > self.min > 0.0):
            raise ParameterError("need max > min > 0")
        if not np.isfinite(self.max * self.max):  # the sweep's largest weight
            raise ParameterError(f"alpha_grid max must square to a finite weight, got {self.max!r}")
        if not self.min * self.min > 0.0:  # the smallest weight, and so the largest too is positive
            raise ParameterError(f"alpha_grid min must square to a positive weight, got {self.min!r}")
        if not _is_int(self.count):
            raise ParameterError(f"alpha_grid count must be an integer, got {self.count!r}")
        if self.count < 1:
            raise ParameterError("need count >= 1")
        object.__setattr__(self, "count", int(self.count))

    @property
    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.max])
        return np.logspace(np.log10(self.max), np.log10(self.min), self.count)


@dataclass
class RegularizedSolution:
    """The solution f that ``alpha_sweep`` chose, its grid value alpha
    (solved at the weight alpha^2) and its RRE against the sweep's
    reference."""

    solution: np.ndarray
    alpha: float
    rre: float


def _optimal(gap, norm_Ktg, norm_M, norm_f):
    """Whether a normal-equation residual norm meets the optimality bound.

    The bound is 1e-8 relative to the gradient data, plus the
    backward-error floor eps*||M||*||f|| below which no float64 solve can
    push the computed residual (the weight grid spans 18 decades, so
    cond(M) routinely exceeds 1e10 at the edges).  Works elementwise on
    arrays of columns.  Both callers, ``tikhonov_solve`` and
    ``alpha_sweep``, take ||M||_F = ||K'K + w A'A||_F from the pencil's
    closed form, ``_frobenius_norm``.
    """
    eps = np.finfo(float).eps
    return gap <= 1e-8 * norm_Ktg + 128.0 * eps * norm_M * norm_f


def _frobenius_norm(pen: TikhonovPencil, weight):
    """||K'K + w A'A||_F for a weight w, or elementwise for an array of
    them: sqrt(kk_f + 2 w ka_f + w^2 aa_f) from the pencil's three
    Frobenius products, with no n x n matrix formed."""
    kk_f, ka_f, aa_f = pen._frobenius
    return np.sqrt(kk_f + 2.0 * weight * ka_f + weight * weight * aa_f)


def tikhonov_solve(p: TikhonovProblem, weight: float) -> np.ndarray:
    """Minimizer of ||K f - g||^2 + w ||A f||^2 at the weight w > 0."""
    if _finite_real("weight", weight) <= 0.0:
        raise ParameterError("weight must be positive")
    import scipy.linalg as sla  # only the fallback needs it (see the module notes)

    pen = p.pencil
    M = weight * pen._AtA
    M += pen._KtK
    norm_Ktg, norm_M = float(np.linalg.norm(p._Ktg)), float(_frobenius_norm(pen, weight))

    def optimal(f):
        gap = float(np.linalg.norm(M @ f - p._Ktg))
        return _optimal(gap, norm_Ktg, norm_M, float(np.linalg.norm(f)))

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
        raise NumericalFailure(
            f"normal equations unsolvable to tolerance at weight {weight:g}"
        )
    return f


def filter_solution(svd, g: np.ndarray, weight: float) -> np.ndarray:
    """Identity-penalty solution from a precomputed SVD of K.

    Coefficients are s_i / (s_i^2 + w) against the left singular basis,
    i.e. the spectral filter t^2/(t^2 + w) applied to the naive inverse.
    The data must be a finite vector with one entry per row of U, as
    ``TikhonovProblem`` requires of its data.
    """
    if _finite_real("weight", weight) <= 0.0:
        raise ParameterError("weight must be positive")
    U, s, Vt = svd
    g = _finite("data", g, (U.shape[0],))
    coef = s / (s**2 + weight) * (U.T @ g)
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
    ||f - reference|| of the certified and already solved columns.  Where
    the refinement converges, the correction bounds how far the refined
    column is from the normal-equation solution; where it diverges (wide
    grids) the correction dwarfs the distance and the column is always
    solved.  A skipped column keeps its refined score in the curve; it is
    at least that factor above the chosen one.  ``NumericalFailure``
    comes only from a column that was solved.  Each column is scored as
    ``metrics.rre`` defines it, with the reference checked and its norm
    taken once for the whole grid; that one distance ||f - reference|| per
    column serves the certification, the fallback rule and the score.  A
    sweep in which that distance overflows at every column has no minimum,
    and raises ``NumericalFailure``.
    """
    reference = _finite("reference", reference, p.data.shape)
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
    sols = np.ascontiguousarray(F.T)
    # metrics.rre column by column, with the same operations in the same order
    # (for a 1-D float64 vector numpy's norm is sqrt(x.dot(x)))
    dist = np.sqrt([d.dot(d) for d in sols - reference])
    norm_M, norm_f = _frobenius_norm(pen, weights), np.linalg.norm(F, axis=0)
    ok = _optimal(np.linalg.norm(R, axis=0), float(np.linalg.norm(Ktg)), norm_M, norm_f)
    ok &= step <= 1e-8 * dist
    best_dist = dist[ok].min(initial=np.inf)
    uncertified = np.flatnonzero(~ok)
    for j in uncertified[np.argsort(dist[uncertified], kind="stable")]:
        if dist[j] - step[j] > _FALLBACK_FACTOR * best_dist:
            continue  # cannot be the minimum: keeps its refined value
        sols[j] = tikhonov_solve(p, float(weights[j]))
        d = sols[j] - reference
        dist[j] = np.sqrt(d.dot(d))
        best_dist = min(best_dist, dist[j])
    errs = dist / norm_ref
    if not np.isfinite(errs.min()):
        raise NumericalFailure("the restoration error overflows at every grid alpha")
    curve = [(float(a), float(e)) for a, e in zip(alphas, errs)]
    tied = np.flatnonzero(errs == errs.min())
    best = min(tied, key=lambda i: alphas[i])
    f = sols[best].copy()  # a row view would keep all count x n solutions alive
    return RegularizedSolution(f, float(alphas[best]), float(errs[best])), curve
