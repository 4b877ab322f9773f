"""Two discretizations of a compact integral operator on (0, 1).

The first one never touches the kernel: it assembles a lattice Schrodinger
matrix L = h^-2 * T + diag(q) whose Toeplitz part T carries the long-range
stencil t[0] = pi^2/3, t[k] = (-1)^k * 2/k^2, and inverts it.  Its spectrum
converges to the continuous one uniformly in the eigenvalue index, which is
the property the experiments quantify.  The second is the standard Galerkin
projection onto orthonormal box functions, kept as the comparison baseline.
It reads each kernel through its semiseparable factors,
h(x, y) = u(min(x, y)) v(max(x, y)).
Both are centrosymmetric, and their spectra and solves go through the
half-size even and odd blocks of ``_EvenOddSplit``, as do the Tikhonov
pencils of ``regularization`` whose penalty is centrosymmetric too.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    EvaluationError,
    NumericalError,
    ParameterError,
    UnsupportedProblemError,
)

__all__ = [
    "ContinuousProblem",
    "Grid",
    "DiscreteOperator",
    "toeplitz_stencil",
    "symmetric_toeplitz",
    "build_schrodinger_operator",
    "pseudo_inverse",
    "build_galerkin_operator",
    "continuous_eigenvalues",
]

_PINV_REL_TOL = 1e-12  # singular values below this times sigma_max count as zero
_QUAD_POINTS = 8  # Gauss-Legendre points per cell and direction


@dataclass(frozen=True)
class ContinuousProblem:
    """A semiseparable integral operator plus the potential of its inverse.

    factors = (u, v) define the kernel h(x, y) = u(min(x, y)) v(max(x, y));
    each maps an array of points in [0, 1] to an array of the same shape.
    eigenvalue_law, when present, maps an integer array m to the pair
    (lambda_m, delta_m) of operator and inverse-operator eigenvalue
    magnitudes, with lambda_m * delta_m = 1.
    forward_oracle, when present, maps (f_id, x) to the closed-form image
    of test function f_id under the operator; it raises KeyError for
    unregistered ids.
    """

    factors: tuple[Callable, Callable]
    potential: Callable
    eigenvalue_law: Callable | None = None
    forward_oracle: Callable | None = None

    def kernel(self, x, y) -> np.ndarray:
        """h(x, y), broadcast over x and y."""
        u, v = self.factors
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.where(y < x, v(x) * u(y), u(x) * v(y))


@dataclass(frozen=True)
class Grid:
    """n nodes in (0, 1), either lattice convention.

    interior: x_i = i/(n+1), i = 1..n (the lattice of the graph operator)
    midpoint: x_i = (i - 1/2)/n, i = 1..n (cell centers of the Galerkin
    box functions, width 1/n)
    """

    n: int
    convention: str = "interior"

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("grid needs n >= 1")
        if self.convention not in ("interior", "midpoint"):
            raise ParameterError(f"unknown grid convention {self.convention!r}")

    @property
    def nodes(self) -> np.ndarray:
        i = np.arange(1, self.n + 1, dtype=float)
        if self.convention == "interior":
            return i / (self.n + 1)
        return (i - 0.5) / self.n


@dataclass(frozen=True)
class DiscreteOperator:
    """A dense matrix acting on functions sampled on a grid."""

    matrix: np.ndarray
    grid: Grid
    tag: str  # graph | galerkin | penalty | derived

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (self.grid.n, self.grid.n):
            raise ContractViolationError(
                f"matrix shape {m.shape} does not match grid size {self.grid.n}"
            )


def toeplitz_stencil(n: int) -> np.ndarray:
    """First row of the long-range difference stencil, t[k] = (-1)^k 2/k^2."""
    if n < 1:
        raise ParameterError("stencil needs n >= 1")
    t = np.empty(n)
    t[0] = np.pi**2 / 3.0
    k = np.arange(1, n, dtype=float)
    t[1:] = (-1.0) ** np.arange(1, n) * 2.0 / k**2
    return t


def symmetric_toeplitz(t: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first row t, T[i, j] = t[|i - j|].

    Row i is the window of length n that starts at n - 1 - i in the
    reflected row [t[n-1], ..., t[1], t[0], t[1], ..., t[n-1]], so T is a
    strided view of that row, copied once into the result.
    """
    t = np.asarray(t, dtype=float)
    reflected = np.concatenate([t[:0:-1], t])
    return np.lib.stride_tricks.sliding_window_view(reflected, t.size)[::-1].copy()


def build_schrodinger_operator(q: Callable, n: int) -> DiscreteOperator:
    """L = h^-2 * ToeplitzSym(t) + diag(q) on the interior lattice.

    The lattice spacing is h = 1/(n+1), so the stencil block is scaled by
    (n+1)^2.  This is what makes the inverse spectrum land on the continuous
    eigenvalues to O(1/n) uniformly in the index.  The scale is applied to
    the first row, which gives every entry the bits of scaling the matrix,
    and q is added on the diagonal of the result in place.
    """
    grid = Grid(n, "interior")
    qx = np.asarray(q(grid.nodes), dtype=float)
    if qx.shape == ():
        qx = np.full(n, float(qx))
    if qx.shape != (n,) or not np.all(np.isfinite(qx)):
        raise EvaluationError("potential not finite on all grid nodes")
    L = symmetric_toeplitz((n + 1) ** 2 * toeplitz_stencil(n))
    L.ravel()[:: n + 1] += qx
    return DiscreteOperator(L, grid, "graph")


def pseudo_inverse(op: DiscreteOperator) -> DiscreteOperator:
    """Moore-Penrose pseudoinverse by SVD, singular values below
    1e-12 * sigma_max treated as zero."""
    try:
        U, s, Vt = np.linalg.svd(np.asarray(op.matrix, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on {op.tag!r} operator") from exc
    cutoff = _PINV_REL_TOL * (s[0] if s.size else 0.0)
    s_inv = np.zeros_like(s)
    keep = s > cutoff
    s_inv[keep] = 1.0 / s[keep]
    K = (Vt.T * s_inv) @ U.T
    return DiscreteOperator(K, op.grid, op.tag if op.tag == "graph" else "derived")


def build_galerkin_operator(p: ContinuousProblem, n: int) -> DiscreteOperator:
    """Box-function Galerkin matrix, entries n * int int_{cell_i x cell_j} h.

    Off the diagonal h = u(min) v(max) factorizes, so an entry is n times a
    product of the 8-point Gauss-Legendre cell integrals of u and v.  A
    diagonal cell is integrated in 2-D, its inner integral split at y = x.
    The matrix is filled in its result array: one outer product gives the
    entries below the diagonal, each row above it is copied from the
    matching column below, so the result is exactly symmetric, and the
    diagonal cells are written last.
    """
    u, v = p.factors
    gx, gw = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    mids = (np.arange(n) + 0.5) / n
    half = 0.5 / n
    x = mids[:, None] + half * gx[None, :]  # (n, q) nodes per cell
    w = half * gw
    ux, vx = u(x), v(x)
    U, V = ux @ w, vx @ w
    # diagonal cells: for each outer node x the inner y runs over
    # [cell start, x], where h = v(x) u(y), and over [x, cell end]
    lo, hi = (mids - half)[:, None], (mids + half)[:, None]
    h1, h2 = 0.5 * (x - lo), 0.5 * (hi - x)
    y1 = lo[:, :, None] + h1[:, :, None] * (gx + 1.0)
    y2 = x[:, :, None] + h2[:, :, None] * (gx + 1.0)
    inner = h1 * ((vx[:, :, None] * u(y1)) @ gw) + h2 * ((ux[:, :, None] * v(y2)) @ gw)
    diag = n * (inner @ w)
    if not np.all(np.isfinite(np.concatenate([U, V, diag]))):
        raise EvaluationError("kernel not finite inside a quadrature cell")
    K = np.outer(n * V, U)  # below the diagonal y < x: h = v(x) u(y)
    for i in range(n - 1):  # above it h = u(x) v(y), the transpose
        K[i, i + 1:] = K[i + 1:, i]
    np.fill_diagonal(K, diag)
    return DiscreteOperator(K, Grid(n, "midpoint"), "galerkin")


def _is_centrosymmetric(A: np.ndarray) -> bool:
    """Whether JAJ = A (J the flip) to 1e-10 of the largest |entry| of A.

    Row i of JAJ is row n - 1 - i of A reversed, so comparing the top rows
    (with the middle one for odd n) covers every entry.  This is the
    contract of ``_EvenOddSplit``; a caller that can also work without the
    split catches the split's ContractViolationError.
    """
    c = A.shape[0] - A.shape[0] // 2
    d = A[:c] - A[::-1, ::-1][:c]
    np.abs(d, out=d)
    defect = float(d.max())
    scale = max(float(A.max()), -float(A.min()))
    return defect <= 1e-10 * scale


def _from_even_odd(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The vectors with even coordinates y and odd coordinates z.

    The inverse change of basis of ``_EvenOddSplit``: with m = n // 2 rows
    in z and n - m in y, and r = 1/sqrt(2), the result is
    [r(y[:m] + z); y[m:]; J r(y[:m] - z)], where y[m:] is the middle node
    for odd n.  y and z are vectors or matrices of columns.
    """
    m = z.shape[0]
    r = 1.0 / sqrt(2.0)
    return np.concatenate([r * (y[:m] + z), y[m:], (r * (y[:m] - z))[::-1]])


class _EvenOddSplit:
    """A symmetric centrosymmetric matrix (JAJ = A, J the flip) as two
    half-size blocks.

    With m = n // 2 and A11, A12 the top-left and top-right m x m blocks of
    the average (A + JAJ)/2, the orthogonal change of basis to even vectors
    [x; Jx]/sqrt(2) and odd vectors [x; -Jx]/sqrt(2) turns A into
    diag(A11 + A12 J, A11 - A12 J).  For odd n the middle node is even: the
    even block gains the middle row and column, scaled by sqrt(2).  The
    average removes the antisymmetric defect; its first-order effect on every
    eigenvalue is zero, because each eigenvector is even or odd.  Both
    blocks are formed from quarter blocks of A, with no n x n temporary.
    ``_from_even_odd`` maps even and odd coordinates back to the n nodes,
    for the solve here; the pencil basis of ``regularization`` writes the
    same map block by block.
    A matrix that fails ``_is_centrosymmetric`` is a ContractViolationError.
    """

    def __init__(self, matrix: np.ndarray):
        A = np.asarray(matrix, dtype=float)
        if not _is_centrosymmetric(A):
            raise ContractViolationError(
                "matrix is not centrosymmetric to 1e-10 of its largest entry"
            )
        n = A.shape[0]
        m, c = n // 2, n - n // 2
        s = A[:m, :m] + A[c:, c:][::-1, ::-1]
        d = A[:m, c:][:, ::-1] + A[c:, :m][::-1, :]
        self.even = np.empty((c, c))
        np.add(s, d, out=self.even[:m, :m])
        self.even[:m, :m] *= 0.5
        if c > m:
            middle = (A[:m, m] + A[c:, m][::-1]) / sqrt(2.0)
            self.even[:m, m] = middle
            self.even[m, :m] = middle
            self.even[m, m] = A[m, m]
        s -= d
        s *= 0.5
        self.odd = s
        self._m = m

    def eigvalsh(self) -> np.ndarray:
        """Eigenvalues of the matrix, ascending."""
        lam = np.concatenate([np.linalg.eigvalsh(self.even), np.linalg.eigvalsh(self.odd)])
        return np.sort(lam)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution x of A x = b by one LU solve per block.

        numpy's ``solve`` runs in numpy's OpenBLAS, next to the ``eigvalsh``
        calls of the spectral diagnostics (see ``regularization``'s notes on
        the two bundled copies)."""
        b = np.asarray(b, dtype=float)
        m = self._m
        c = b.shape[0] - m
        top, bottom = b[:m], b[c:][::-1]
        r = 1.0 / sqrt(2.0)
        plus = np.concatenate([r * (top + bottom), b[m:c]])
        minus = r * (top - bottom)
        y = np.linalg.solve(self.even, plus)
        z = np.linalg.solve(self.odd, minus)
        return _from_even_odd(y, z)


def continuous_eigenvalues(p: ContinuousProblem, count: int) -> np.ndarray:
    """lambda_1..lambda_count from the problem's registered eigenvalue law."""
    if count < 0:
        raise ParameterError("count must be >= 0")
    if count == 0:
        return np.empty(0)
    if p.eigenvalue_law is None:
        raise UnsupportedProblemError("problem has no registered eigenvalue law")
    lam, _ = p.eigenvalue_law(np.arange(1, count + 1))
    return np.asarray(lam, dtype=float)
