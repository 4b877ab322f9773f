import numpy as np
import pytest

from graphtik.errors import ParameterError
from graphtik.metrics import lsre, max_abs_error, msre, rre


def test_lsre_basic():
    assert lsre([2.0], [1.0], 1) == 1.0
    assert lsre([1.0, 3.0], [1.0, 2.0], 2) == 0.5
    assert lsre([5.0], [5.0], 1) == 0.0


def test_lsre_validation():
    with pytest.raises(ParameterError):
        lsre([1.0], [1.0], 0)
    with pytest.raises(ParameterError):
        lsre([1.0], [1.0], 2)
    with pytest.raises(ParameterError):
        lsre([1.0], [0.0], 1)


def test_msre_is_max_of_lsre():
    rng = np.random.default_rng(4)
    c = 1.0 + rng.random(10)
    d = c * (1.0 + 0.1 * rng.standard_normal(10))
    assert msre(d, c) == max(lsre(d, c, m) for m in range(1, 11))


def test_msre_validation():
    with pytest.raises(ParameterError):
        msre([1.0, 2.0], [1.0])
    with pytest.raises(ParameterError):
        msre([1.0, 2.0], [1.0, 0.0])
    # an empty pair is a configuration error, not numpy's empty-reduction one
    with pytest.raises(ParameterError, match="empty"):
        msre([], [])


def test_rre_values():
    assert rre([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert rre([2.0, 0.0], [1.0, 0.0]) == 1.0


def test_rre_invariances():
    rng = np.random.default_rng(8)
    f = rng.standard_normal(10)
    ft = rng.standard_normal(10)
    base = rre(f, ft)
    # common rescaling and rotation leave the 2-norm ratio alone
    np.testing.assert_allclose(rre(7.0 * f, 7.0 * ft), base, rtol=1e-14)
    Q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    np.testing.assert_allclose(rre(Q @ f, Q @ ft), base, rtol=1e-12)


def test_rre_validation():
    with pytest.raises(ParameterError):
        rre([1.0], [1.0, 2.0])
    with pytest.raises(ParameterError):
        rre([1.0, 2.0], [0.0, 0.0])


def test_max_abs_error():
    assert max_abs_error([1.0, 2.0], [1.5, 2.0]) == 0.5
    assert max_abs_error([], []) == 0.0
    with pytest.raises(ParameterError):
        max_abs_error([1.0], [1.0, 2.0])
