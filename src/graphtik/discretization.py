"""Two discretizations of a compact integral operator on (0, 1).

The first one never touches the kernel: it assembles a lattice Schrodinger
matrix L = h^-2 * T + diag(q) whose Toeplitz part T carries the long-range
stencil t[0] = pi^2/3, t[k] = (-1)^k * 2/k^2, and inverts it.  Its spectrum
converges to the continuous one uniformly in the eigenvalue index, which is
the property the experiments quantify.  The second is the standard Galerkin
projection onto orthonormal box functions, kept as the comparison baseline.
It reads each kernel through its semiseparable factors,
h(x, y) = u(min(x, y)) v(max(x, y)).
Both are centrosymmetric, and their spectra and solves go through a pair
of half-size even and odd blocks, as do the Tikhonov pencils of
``regularization`` whose penalty is centrosymmetric too.  The pair is made
by ``_even_odd_blocks``, which tests the matrix first and refuses one that
is not centrosymmetric with a ``ParameterError`` (the pencil runs the test
itself and calls the split alone, ``_even_odd_split``), and used by
``_even_odd_solve`` and ``_join_even_odd``; ``build_schrodinger_blocks``
writes the lattice matrix's pair straight from the scaled stencil, so the
diagnostics never form L; the full matrix of
``build_schrodinger_operator`` is only needed to invert it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable

import numpy as np

from .errors import NumericalFailure, ParameterError, _is_int

_PINV_REL_TOL = 1e-12  # singular values below this times sigma_max count as zero
_QUAD_POINTS = 8  # Gauss-Legendre points per cell and direction
_CENTRO_REL_TOL = 1e-10  # largest |A - JAJ| accepted, relative to max |A|


@dataclass(frozen=True)
class ContinuousProblem:
    """A semiseparable integral operator K = green_sign * L^-1 and the
    potential q of its inverse L = -d^2/dx^2 + q, zero at both ends.

    factors = (u, v) define the kernel h(x, y) = u(min(x, y)) v(max(x, y));
    each maps an array of points in [0, 1] to an array of the same shape.
    potential maps an array of points to an array of the same shape, one
    value of q per point.
    eigenvalue_law, when present, maps an integer array m to the operator's
    eigenvalue magnitudes lambda_m; ``experiments.continuous_spectrum``
    reads it.
    images maps a test-function id to the closed-form image of that
    function under the operator, as a map of an array of points to an
    array of the same shape; ids without a closed form are absent.  It is
    left out of the hash, which a dict does not have.
    green_sign (+1 or -1) orients the lattice inverse of L like the kernel
    h, and id names the problem in messages.
    """

    factors: tuple[Callable, Callable]
    potential: Callable
    eigenvalue_law: Callable | None = None
    images: dict = field(default_factory=dict, hash=False)
    green_sign: float = 1.0
    id: str = ""

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
        if not (_is_int(self.n) and self.n >= 1):
            raise ParameterError(f"grid needs an integer n >= 1, got {self.n!r}")
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

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (self.grid.n, self.grid.n):
            raise ParameterError(
                f"matrix shape {m.shape} does not match grid size {self.grid.n}"
            )


def toeplitz_stencil(n: int) -> np.ndarray:
    """First row of the long-range difference stencil, t[k] = (-1)^k 2/k^2."""
    if not (_is_int(n) and n >= 1):
        raise ParameterError(f"stencil needs an integer n >= 1, got {n!r}")
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
    return _toeplitz_view(np.asarray(t, dtype=float)).copy()


def _toeplitz_view(t: np.ndarray) -> np.ndarray:
    """``symmetric_toeplitz(t)`` as a read-only strided view (t nonempty)."""
    reflected = np.concatenate([t[:0:-1], t])
    return np.lib.stride_tricks.sliding_window_view(reflected, t.size)[::-1]


def _lattice_terms(q: Callable, n: int) -> tuple[Grid, np.ndarray, np.ndarray]:
    """The interior grid, the scaled stencil (n+1)^2 t and q on the grid.

    The scale is applied to the first row, which gives every entry the bits
    of scaling the Toeplitz matrix.  q must return one value per node."""
    grid = Grid(n, "interior")
    qx = np.asarray(q(grid.nodes), dtype=float)
    if qx.shape != (n,):
        raise ParameterError(f"potential must return shape {(n,)}, got {qx.shape}")
    if not np.all(np.isfinite(qx)):
        raise NumericalFailure("potential not finite on all grid nodes")
    return grid, (n + 1) ** 2 * toeplitz_stencil(n), qx


def build_schrodinger_operator(q: Callable, n: int) -> DiscreteOperator:
    """L = h^-2 * ToeplitzSym(t) + diag(q) on the interior lattice.

    The lattice spacing is h = 1/(n+1), so the stencil block is scaled by
    (n+1)^2.  This is what makes the inverse spectrum land on the continuous
    eigenvalues to O(1/n) uniformly in the index.  q is added on the
    diagonal of the Toeplitz matrix in place.
    """
    grid, s, qx = _lattice_terms(q, n)
    L = symmetric_toeplitz(s)
    L.ravel()[:: n + 1] += qx
    return DiscreteOperator(L, grid)


def build_schrodinger_blocks(q: Callable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of L, written from the scaled stencil s.

    They equal ``_even_odd_blocks(build_schrodinger_operator(q, n).matrix)``
    bit for bit, without forming L.  With m = n // 2, the blocks are
    s[|i - j|] + s[n-1-i-j] and s[|i - j|] - s[n-1-i-j] for i, j < m (a
    Toeplitz view of s[:m] and a Hankel view of the reflected row), which is
    the split's (2a +- 2b)/2 exactly.  Their diagonals take the split's own
    expression (fl(d_i + d_{n-1-i}) +- fl(2 s[n-1-2i])) * 0.5, where
    d = s[0] + q is L's diagonal; for odd n the even block gains the middle
    row and column 2 s[m-i]/sqrt(2) and d_m.  L - JLJ is zero off its
    diagonal, so the centrosymmetry test of the split reads d alone: a
    potential that is not even to 1e-10 of L's largest entry is a
    ParameterError.  The diagnostics do not form L and split it instead,
    because that L, an n x n array, would set the peak memory of the
    spectral tables (A/B in ``CHANGES.md``).
    """
    _, s, qx = _lattice_terms(q, n)
    d = s[0] + qx
    m, c = n // 2, n - n // 2
    defect = float(np.abs(d[:c] - d[::-1][:c]).max())
    scale = max(float(np.abs(d).max()), float(np.abs(s[1:]).max(initial=0.0)))
    if not defect <= _CENTRO_REL_TOL * scale:
        raise ParameterError("potential is not even about x = 1/2 to 1e-10 of L's largest entry")
    even, odd = np.empty((c, c)), np.empty((m, m))
    if m:
        toeplitz = _toeplitz_view(s[:m])
        hankel = np.lib.stride_tricks.sliding_window_view(s[::-1][: 2 * m - 1], m)
        np.add(toeplitz, hankel, out=even[:m, :m])
        np.subtract(toeplitz, hankel, out=odd)
        pair = d[:m] + d[::-1][:m]
        twice = 2.0 * hankel.diagonal()
        np.fill_diagonal(even[:m, :m], (pair + twice) * 0.5)
        np.fill_diagonal(odd, (pair - twice) * 0.5)
    if c > m:
        middle = 2.0 * s[m:0:-1] / sqrt(2.0)
        even[:m, m] = middle
        even[m, :m] = middle
        even[m, m] = d[m]
    return even, odd


def pseudo_inverse(op: DiscreteOperator) -> DiscreteOperator:
    """Moore-Penrose pseudoinverse by SVD, singular values below
    1e-12 * sigma_max treated as zero."""
    try:
        U, s, Vt = np.linalg.svd(np.asarray(op.matrix, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("SVD of the operator failed") from exc
    cutoff = _PINV_REL_TOL * s[0]
    s_inv = np.zeros_like(s)
    keep = s > cutoff
    s_inv[keep] = 1.0 / s[keep]
    K = (Vt.T * s_inv) @ U.T
    return DiscreteOperator(K, op.grid)


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
    grid = Grid(n, "midpoint")  # checks n first
    u, v = p.factors
    gx, gw = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    mids = grid.nodes
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
        raise NumericalFailure("kernel not finite inside a quadrature cell")
    K = np.outer(n * V, U)  # below the diagonal y < x: h = v(x) u(y)
    for i in range(n - 1):  # above it h = u(x) v(y), the transpose
        K[i, i + 1:] = K[i + 1:, i]
    np.fill_diagonal(K, diag)
    return DiscreteOperator(K, grid)


def _is_centrosymmetric(A: np.ndarray) -> bool:
    """Whether JAJ = A (J the flip) to 1e-10 of the largest |entry| of A.

    Row i of JAJ is row n - 1 - i of A reversed, so comparing the top rows
    (with the middle one for odd n) covers every entry.  This is the
    contract of ``_even_odd_blocks``; a caller that can also work without
    the split runs it first and then calls ``_even_odd_split``.
    """
    c = A.shape[0] - A.shape[0] // 2
    d = A[:c] - A[::-1, ::-1][:c]
    np.abs(d, out=d)
    defect = float(d.max())
    scale = max(float(A.max()), -float(A.min()))
    return defect <= _CENTRO_REL_TOL * scale


def _even_odd_blocks(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of a symmetric centrosymmetric matrix.

    This is the one statement of the split's layout.  With J the flip,
    m = n // 2 and A11, A12 the top-left and top-right m x m blocks of the
    average (A + JAJ)/2, the orthogonal change of basis P to even vectors
    [x; Jx]/sqrt(2) and odd vectors [x; -Jx]/sqrt(2) gives
    P'AP = diag(even, odd), even = A11 + A12 J and odd = A11 - A12 J.  For
    odd n the middle node is even: the even block gains the middle row and
    column, scaled by sqrt(2).  The average removes the antisymmetric
    defect; its first-order effect on every eigenvalue is zero, because
    each eigenvector is even or odd.  Both blocks are formed from quarter
    blocks of A, with no n x n temporary.  ``_even_odd_solve`` and
    ``_join_even_odd`` apply P.  A matrix that fails ``_is_centrosymmetric``
    is a ParameterError.
    """
    A = np.asarray(matrix, dtype=float)
    if not _is_centrosymmetric(A):
        raise ParameterError("matrix is not centrosymmetric to 1e-10 of its largest entry")
    return _even_odd_split(A)


def _even_odd_split(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_even_odd_blocks`` of a float array that has passed
    ``_is_centrosymmetric``, without testing it again."""
    n = A.shape[0]
    m, c = n // 2, n - n // 2
    s = A[:m, :m] + A[c:, c:][::-1, ::-1]
    d = A[:m, c:][:, ::-1] + A[c:, :m][::-1, :]
    even = np.empty((c, c))
    np.add(s, d, out=even[:m, :m])
    even[:m, :m] *= 0.5
    if c > m:
        middle = (A[:m, m] + A[c:, m][::-1]) / sqrt(2.0)
        even[:m, m] = middle
        even[m, :m] = middle
        even[m, m] = A[m, m]
    s -= d
    s *= 0.5
    return even, s


def _even_odd_solve(even: np.ndarray, odd: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution x of A x = b, from A's blocks, by one LU solve per block.

    b is taken to even and odd coordinates by P', and the two block
    solutions back to the n nodes by P.  numpy's ``solve`` keeps the solve
    in numpy's OpenBLAS, next to the spectral diagnostics' ``eigvalsh``.
    """
    b = np.asarray(b, dtype=float)
    m = len(odd)
    c = b.shape[0] - m
    top, bottom = b[:m], b[c:][::-1]
    r = 1.0 / sqrt(2.0)
    y = np.linalg.solve(even, np.concatenate([r * (top + bottom), b[m:c]]))
    z = np.linalg.solve(odd, r * (top - bottom))
    return np.concatenate([r * (y[:m] + z), y[m:], (r * (y[:m] - z))[::-1]])


def _join_even_odd(V_even: np.ndarray, V_odd: np.ndarray) -> np.ndarray:
    """V = P diag(V_even, V_odd), P the change of basis of ``_even_odd_blocks``.

    Written block by block into one array; the zero blocks are not added,
    which changes no value.
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

