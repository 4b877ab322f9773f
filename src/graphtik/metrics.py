"""Error functionals: spectral relative errors and restoration errors."""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, _is_int


def lsre(discrete_eigs, continuous_eigs, m: int) -> float:
    """|discrete[m]/continuous[m] - 1| for the 1-based index m.

    Both inputs must already be sorted the same way (descending magnitude
    is the convention used everywhere in this package).
    """
    d = np.asarray(discrete_eigs, dtype=float)
    c = np.asarray(continuous_eigs, dtype=float)
    if not (_is_int(m) and 1 <= m <= d.size and m <= c.size):
        raise ParameterError(f"index m={m} out of range")
    if c[m - 1] == 0.0:
        raise ParameterError("continuous eigenvalue is zero")
    return float(np.abs(d[m - 1] / c[m - 1] - 1.0))


def msre(discrete_eigs, continuous_eigs) -> float:
    """max over m of lsre; inputs index-matched, equal length, not empty."""
    d = np.asarray(discrete_eigs, dtype=float)
    c = np.asarray(continuous_eigs, dtype=float)
    if d.shape != c.shape:
        raise ParameterError("spectra must have equal length")
    if d.size == 0:
        raise ParameterError("spectra are empty")
    if np.any(c == 0.0):
        raise ParameterError("continuous eigenvalue is zero")
    return float(np.max(np.abs(d / c - 1.0)))


def rre(f, f_true) -> float:
    """Relative restoration error ||f - f_true|| / ||f_true||."""
    f = np.asarray(f, dtype=float)
    f_true = np.asarray(f_true, dtype=float)
    if f.shape != f_true.shape:
        raise ParameterError("vectors must have equal length")
    denom = np.linalg.norm(f_true)
    if denom == 0.0:
        raise ParameterError("reference vector is zero")
    return float(np.linalg.norm(f - f_true) / denom)


def max_abs_error(f_approx, f_exact) -> float:
    """Sup-norm distance between two vectors."""
    f_approx = np.asarray(f_approx, dtype=float)
    f_exact = np.asarray(f_exact, dtype=float)
    if f_approx.shape != f_exact.shape:
        raise ParameterError("vectors must have equal length")
    if f_approx.size == 0:
        return 0.0
    return float(np.max(np.abs(f_approx - f_exact)))
