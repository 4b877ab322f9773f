"""Exception hierarchy, and the package's input rules.

Two families matter downstream: a request that is wrong
(``ParameterError``: a bad input, an unusable spec, a usage error, an
unreadable config file, a closed-form image that is not registered or a
matrix that breaks a structural precondition) and a numerical failure
(``NumericalFailure``: solver, factorization or quadrature breakdown on a
valid request).  The CLI maps the former to exit code 1 and the latter to
exit code 2, and the one other catch site, a table's record of a failed
seed, keeps just the message.  An input that a caller can take another way
(a test function with no closed form, a penalty that is not
centrosymmetric) is tested before the call, not caught after it, so no
leaf class is needed: the three classes are ``GraphtikError``,
``ParameterError`` and ``NumericalFailure``.

The input rules live here, in the one module every other module imports,
and every public check goes through them: ``_is_int`` is the one integer
rule (ids, seeds, sizes, counts, truncations, radii), ``_finite_real`` the
one rule for a real parameter, ``_finite`` the one rule for an array
(operators, data vectors, anchors), and ``_lookup`` the one lookup of an
integer id in a catalogue.  Each refuses a bad input with a
``ParameterError``.
"""
from __future__ import annotations

from math import inf, isfinite
from numbers import Integral, Real

import numpy as np


class GraphtikError(Exception):
    """Base class for all package errors."""


class ParameterError(GraphtikError):
    """The request itself is wrong: an input outside its documented range,
    or short of what the request needs, or an unusable spec."""


class NumericalFailure(GraphtikError):
    """A numerical routine failed on a valid request."""


def _is_int(x) -> bool:
    """An integer (numpy's too), never a bool, a float or a string."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _finite_real(name: str, value) -> float:
    """value as a float, for a real number (an integer too, never a bool)
    that is finite as a float; an integer too large for a float is not."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = inf
    if not isfinite(x):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return x


def _finite(name: str, x, shape: tuple | None = None) -> np.ndarray:
    """x as a float array with finite entries, and of the given shape if
    one is given: the check every operator, data vector and anchor passes."""
    x = np.asarray(x, dtype=float)
    if shape is not None and x.shape != shape:
        raise ParameterError(f"{name} must have shape {shape}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{name} has non-finite entries")
    return x


def _lookup(catalogue: dict, kind: str, key):
    """(key, entry) for an integer key of the catalogue, with the key as a
    Python int, so that a numpy integer id is written as a JSON number."""
    if not (_is_int(key) and key in catalogue):
        raise ParameterError(f"{kind} id must be one of {sorted(catalogue)}, got {key!r}")
    return int(key), catalogue[key]
