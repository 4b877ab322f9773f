"""Tikhonov solves, the SVD filter shortcut and the parameter sweep."""
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphtik import discretization, experiments, regularization
from graphtik.discretization import DiscreteOperator, Grid
from graphtik.errors import IllPosedProblemError, NumericalError, ParameterError
from graphtik.metrics import rre
from graphtik.penalty import (
    SimilarityParams,
    data_graph_laplacian,
    dirichlet_penalty,
    neumann_penalty,
)
from graphtik.regularization import (
    AlphaGrid,
    TikhonovPencil,
    TikhonovProblem,
    alpha_sweep,
    filter_solution,
    tikhonov_solve,
)

_GRID = Grid(2, "interior")


def _op(matrix, grid=None):
    m = np.asarray(matrix, dtype=float)
    return DiscreteOperator(m, grid or Grid(m.shape[0], "interior"), "penalty")


def _problem(K, A, g):
    return TikhonovProblem(TikhonovPencil(_op(K), _op(A)), g)


def test_identity_shrinkage():
    # K = A = I: minimizer of |f-g|^2 + a|f|^2 is g/(1+a)
    g = np.array([3.0, -1.0])
    for a in (0.5, 1.0, 10.0):
        f = tikhonov_solve(_problem(np.eye(2), np.eye(2), g), a)
        np.testing.assert_allclose(f, g / (1.0 + a), rtol=1e-12)
        residual_norm = np.linalg.norm(f - g)  # ||K f - g|| with K = I
        np.testing.assert_allclose(residual_norm, a / (1.0 + a) * np.linalg.norm(g), rtol=1e-10)


def test_partial_penalty():
    # penalty acting on the second coordinate only
    f = tikhonov_solve(_problem(np.eye(2), np.diag([0.0, 1.0]), [1.0, 1.0]), 1.0)
    np.testing.assert_allclose(f, [1.0, 0.5], rtol=1e-12)


def test_shrinkage_monotone_in_alpha():
    rng = np.random.default_rng(0)
    K = rng.standard_normal((8, 8))
    g = rng.standard_normal(8)
    p = _problem(K, np.eye(8), g)
    alphas = np.logspace(-4, 4, 9)
    norms = [np.linalg.norm(tikhonov_solve(p, a)) for a in alphas]
    residuals = [np.linalg.norm(K @ tikhonov_solve(p, a) - g) for a in alphas]
    assert np.all(np.diff(norms) < 0)
    assert np.all(np.diff(residuals) > 0)


def test_solution_linear_in_data():
    rng = np.random.default_rng(1)
    K = rng.standard_normal((6, 6))
    p1 = _problem(K, np.eye(6), rng.standard_normal(6))
    p2 = _problem(K, np.eye(6), rng.standard_normal(6))
    psum = _problem(K, np.eye(6), p1.data + p2.data)
    a = 0.3
    np.testing.assert_allclose(
        tikhonov_solve(psum, a),
        tikhonov_solve(p1, a) + tikhonov_solve(p2, a),
        atol=1e-10,
    )


def test_shared_null_direction_rejected():
    with pytest.raises(IllPosedProblemError):
        _problem(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), [1.0, 1.0])
    # singular pencil with no exact zero: the Cholesky pivots of
    # K'K + A'A = diag(2, 1e-14) are 2 and 1e-14, below the 1e-12 relative
    # floor
    with pytest.raises(IllPosedProblemError):
        _problem(np.diag([1.0, 1e-7]), np.diag([1.0, 0.0]), [1.0, 1.0])
    # rank-one K and A sharing the null direction (1, -1)
    with pytest.raises(IllPosedProblemError):
        _problem(np.ones((2, 2)), np.ones((2, 2)), [1.0, 1.0])


@pytest.mark.parametrize(
    "K,A,g",
    [
        (np.eye(2), np.eye(2), [1.0, np.nan]),
        (np.eye(2), np.eye(2), [np.inf, 1.0]),
        (np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]]), [1.0, 1.0]),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2), [1.0, 1.0]),
    ],
    ids=["nan-data", "inf-data", "inf-penalty", "nan-forward"],
)
def test_non_finite_input_rejected(K, A, g):
    # a configuration error (exit 1), raised before any decomposition
    with pytest.raises(ParameterError, match="non-finite"):
        _problem(K, A, g)


def test_construction_validation():
    with pytest.raises(ParameterError):
        TikhonovPencil(_op(np.eye(2)), _op(np.eye(2), Grid(2, "midpoint")))
    with pytest.raises(ParameterError):
        _problem(np.eye(2), np.eye(2), np.ones(3))
    # alpha is a finite positive real: inf reached LAPACK and raised its
    # LinAlgError, 10**400 an OverflowError and "1" a TypeError
    for alpha in (0.0, float("inf"), float("nan"), 10**400, "1"):
        with pytest.raises(ParameterError):
            tikhonov_solve(_problem(np.eye(2), np.eye(2), np.ones(2)), alpha)


def test_filter_equals_identity_penalty_solve():
    rng = np.random.default_rng(5)
    K = rng.standard_normal((20, 20))
    g = rng.standard_normal(20)
    p = _problem(K, np.eye(20), g)
    svd = np.linalg.svd(K)
    for a in (1e-6, 1e-2, 10.0):
        f_filter = filter_solution(svd, g, a)
        f_solve = tikhonov_solve(p, a)
        assert np.linalg.norm(f_filter - f_solve) <= 1e-10 * np.linalg.norm(f_solve)


def test_filter_half_damping():
    # the filter factor t^2/(t^2 + a) equals 1/2 at t = sqrt(a)
    a = 0.37
    svd = (np.eye(1), np.array([np.sqrt(a)]), np.eye(1))
    naive = 1.0 / np.sqrt(a)
    np.testing.assert_allclose(filter_solution(svd, np.array([1.0]), a), 0.5 * naive, rtol=1e-14)


def test_filter_small_alpha_limit():
    rng = np.random.default_rng(9)
    K = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    g = rng.standard_normal(5)
    f = filter_solution(np.linalg.svd(K), g, 1e-13)
    np.testing.assert_allclose(f, np.linalg.solve(K, g), rtol=1e-9)
    for alpha in (-1.0, float("inf"), 10**400, "1"):
        with pytest.raises(ParameterError):
            filter_solution(np.linalg.svd(K), g, alpha)


@pytest.mark.parametrize(
    "g,match",
    [
        (np.ones(4), "length"),
        (np.ones((5, 1)), "length"),
        ([1.0, np.nan, 0.0, 0.0, 0.0], "non-finite"),
        ([1.0, 0.0, np.inf, 0.0, 0.0], "non-finite"),
    ],
    ids=["short", "column", "nan", "inf"],
)
def test_filter_rejects_bad_data(g, match):
    # the same configuration errors as TikhonovProblem's, before any product
    svd = np.linalg.svd(np.random.default_rng(3).standard_normal((5, 5)))
    with pytest.raises(ParameterError, match=match):
        filter_solution(svd, g, 1.0)


def test_alpha_grid_values():
    grid = AlphaGrid(max=100.0, min=0.01, count=5)
    v = grid.values
    assert v[0] == 100.0 and np.isclose(v[-1], 0.01)
    np.testing.assert_allclose(v[:-1] / v[1:], 10.0 * np.ones(4), rtol=1e-12)
    np.testing.assert_array_equal(AlphaGrid(count=1).values, [1e3])


def test_alpha_grid_validation():
    with pytest.raises(ParameterError):
        AlphaGrid(max=1.0, min=2.0)
    with pytest.raises(ParameterError):
        AlphaGrid(min=-1.0)
    with pytest.raises(ParameterError):
        AlphaGrid(count=0)
    for name in ("max", "min"):
        for value in (float("inf"), float("nan"), 10**400):
            with pytest.raises(ParameterError, match=f"alpha_grid {name} must be finite"):
                AlphaGrid(**{name: value})
        # a mistyped bound is a configuration error, not numpy's TypeError
        for value in ("1e3", None, True, 1 + 0j):
            with pytest.raises(ParameterError, match=f"alpha_grid {name} must be a real number"):
                AlphaGrid(**{name: value})
    # a float or bool count would reach np.logspace, or make a one-point grid
    for count in (2.5, 3.0, True, "3", None):
        with pytest.raises(ParameterError, match="alpha_grid count must be an integer"):
            AlphaGrid(count=count)
    # the sweep solves at the weight max^2, which overflows above about 1.34e154
    with pytest.raises(ParameterError, match="alpha_grid max"):
        AlphaGrid(max=1e200)
    assert AlphaGrid(max=1e154).values[0] ** 2 < np.inf
    assert AlphaGrid(count=np.int64(3)).values.shape == (3,)
    assert AlphaGrid(max=np.float64(10.0), min=1).values[-1] == pytest.approx(1.0)


def test_sweep_reports_grid_value():
    rng = np.random.default_rng(2)
    K = rng.standard_normal((10, 10))
    f_true = rng.standard_normal(10)
    p = _problem(K, np.eye(10), K @ f_true)
    grid = AlphaGrid(max=10.0, min=1e-8, count=12)
    best, curve = alpha_sweep(p, grid, f_true)
    assert len(curve) == 12
    assert best.alpha in grid.values
    assert best.rre == min(err for _, err in curve)
    # squaring the grid value: the same solution is the direct solve at a^2
    direct = tikhonov_solve(p, best.alpha**2)
    np.testing.assert_allclose(direct, best.solution, rtol=1e-12)


def test_sweep_solution_does_not_pin_the_grid_of_solutions():
    # the returned solution owns its n entries: a caller that keeps it (a
    # table, the benchmark's passes) does not keep the count x n sweep alive
    rng = np.random.default_rng(11)
    K = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    reference = rng.standard_normal(6)
    best, _ = alpha_sweep(_problem(K, np.eye(6), K @ reference), AlphaGrid(count=7), reference)
    assert best.solution.base is None and best.solution.shape == (6,)


def test_sweep_tie_takes_smallest_alpha():
    # zero data gives the zero solution at every weight, so every rre ties
    p = _problem(np.eye(4), np.eye(4), np.zeros(4))
    grid = AlphaGrid(max=10.0, min=0.1, count=7)
    best, curve = alpha_sweep(p, grid, np.ones(4))
    assert all(err == 1.0 for _, err in curve)
    assert best.alpha == grid.values.min()


def test_sweep_whose_error_overflows_at_every_alpha_is_a_numerical_error():
    # data near 1e300 give solutions whose distance to the reference
    # overflows at every weight, so no column can be the minimum
    p = _problem(np.eye(4), np.eye(4), np.full(4, 1e300))
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="overflows at every grid alpha"):
        alpha_sweep(p, AlphaGrid(max=10.0, min=0.1, count=7), np.ones(4))


def test_shared_pencil_sweeps_like_a_fresh_problem():
    # the pencil stage depends only on (K, A): reusing it for another data
    # vector changes no bit of the sweep
    rng = np.random.default_rng(4)
    K, A = _op(rng.standard_normal((9, 9))), _op(neumann_penalty(9).matrix)
    pencil = TikhonovPencil(K, A)
    reference = rng.standard_normal(9)
    for _ in range(3):
        g = K.matrix @ reference + 0.1 * rng.standard_normal(9)
        shared, shared_curve = alpha_sweep(TikhonovProblem(pencil, g), _SWEEP_GRID, reference)
        fresh, fresh_curve = alpha_sweep(TikhonovProblem(TikhonovPencil(K, A), g), _SWEEP_GRID, reference)
        assert shared_curve == fresh_curve
        np.testing.assert_array_equal(shared.solution, fresh.solution)


def test_sweep_scores_like_rre():
    # the sweep scores its columns itself; the chosen one must carry exactly
    # the value metrics.rre gives
    rng = np.random.default_rng(6)
    for n in range(2, 30, 3):
        K = rng.standard_normal((n, n))
        reference = rng.standard_normal(n)
        p = _problem(K, neumann_penalty(n).matrix, K @ reference + 0.05 * rng.standard_normal(n))
        best, curve = alpha_sweep(p, _SWEEP_GRID, reference)
        assert best.rre == rre(best.solution, reference)
        assert (best.alpha, best.rre) in curve
        # a one-point sweep returns its only column, so every grid value's
        # score is checked against the definition
        for a in _SWEEP_GRID.values:
            one, one_curve = alpha_sweep(p, AlphaGrid(max=a, min=a / 10.0, count=1), reference)
            assert one.rre == rre(one.solution, reference)
            assert one_curve == [(a, one.rre)]
    with pytest.raises(ParameterError, match="zero"):
        alpha_sweep(p, _SWEEP_GRID, np.zeros(n))


@pytest.mark.parametrize("reference", [np.ones(3), np.array([1.0, np.nan])])
def test_sweep_rejects_bad_reference(reference):
    p = _problem(np.eye(2), np.eye(2), np.ones(2))
    with pytest.raises(ParameterError):
        alpha_sweep(p, AlphaGrid(), reference)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-6, max_value=1e3),
)
def test_normal_equations_satisfied(n, seed, alpha):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n))
    g = rng.standard_normal(n)
    f = tikhonov_solve(_problem(K, np.eye(n), g), alpha)
    M = K.T @ K + alpha * np.eye(n)
    gap = np.linalg.norm(M @ f - K.T @ g)
    assert gap <= 1e-6 * max(np.linalg.norm(K.T @ g), 1e-30)


def _per_weight_curve(p, grid, reference):
    """The definition: one normal-equation solve per grid weight alpha^2."""
    return [rre(tikhonov_solve(p, a**2), reference) for a in grid.values]


def _meets_solver_bound(p, weight, f):
    # the optimality bound of the normal-equation solver
    M = p.pencil._KtK + weight * p.pencil._AtA
    gap = np.linalg.norm(M @ f - p._Ktg)
    eps = np.finfo(float).eps
    bound = 1e-8 * np.linalg.norm(p._Ktg) + 128.0 * eps * np.linalg.norm(M, "fro") * np.linalg.norm(f)
    return gap <= bound


def _graph_laplacian(rng, n):
    # weighted path-plus-random graph; constants span its kernel, as for a3
    W = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
    W += np.diag(np.full(n - 1, 0.5), 1)
    W = W + W.T
    return np.diag(W.sum(axis=1)) - W


_SWEEP_GRID = AlphaGrid(max=10.0, min=1e-4, count=11)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["identity", "neumann", "graph"]),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_sweep_matches_per_weight_solves(n, seed, penalty, decay):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = U @ np.diag(np.logspace(0.0, -decay, n)) @ Q.T
    if penalty == "identity":
        A = np.eye(n)
    elif penalty == "neumann":
        A = neumann_penalty(n).matrix
    else:
        A = _graph_laplacian(rng, n)
    reference = rng.standard_normal(n)
    p = _problem(K, A, K @ reference + 0.1 * rng.standard_normal(n))
    _assert_sweep_matches_per_weight_solves(p, reference)


def _assert_sweep_matches_per_weight_solves(p, reference):
    """The sweep over _SWEEP_GRID against the definition, one normal-equation
    solve per weight."""
    best, curve = alpha_sweep(p, _SWEEP_GRID, reference)
    assert [a for a, _ in curve] == list(_SWEEP_GRID.values)
    assert _meets_solver_bound(p, best.alpha**2, best.solution)
    # every grid solution, each returned by a one-point sweep
    for a in _SWEEP_GRID.values:
        one, _ = alpha_sweep(p, AlphaGrid(max=a, min=a / 10.0, count=1), reference)
        assert _meets_solver_bound(p, a**2, one.solution)
    conds = [np.linalg.cond(p.pencil._KtK + a**2 * p.pencil._AtA) for a in _SWEEP_GRID.values]
    if max(conds) > 1e6:
        return  # RRE decided by roundoff: only the residual bound applies
    loop = np.array(_per_weight_curve(p, _SWEEP_GRID, reference))
    np.testing.assert_allclose([e for _, e in curve], loop, rtol=1e-8)
    j = int(np.flatnonzero(loop == loop.min()).max())  # ties: smallest alpha
    i = list(_SWEEP_GRID.values).index(best.alpha)
    # the same alpha, unless the definition itself ties the two to 1e-8
    assert i == j or abs(loop[i] - loop[j]) <= 1e-8 * loop[j]
    np.testing.assert_allclose(best.rre, loop[j], rtol=1e-8)


def test_well_conditioned_sweep_needs_no_fallback(monkeypatch):
    # every column of a well-conditioned problem is certified by the batched
    # solve and its one refinement step, so no per-weight solve runs
    rng = np.random.default_rng(3)
    K = rng.standard_normal((12, 12)) + 6.0 * np.eye(12)
    reference = rng.standard_normal(12)
    p = _problem(K, neumann_penalty(12).matrix, K @ reference + 0.1 * rng.standard_normal(12))
    loop = _per_weight_curve(p, _SWEEP_GRID, reference)

    def forbidden(p, weight):
        raise AssertionError(f"fallback solve at weight {weight:g}")

    monkeypatch.setattr(regularization, "tikhonov_solve", forbidden)
    _, curve = alpha_sweep(p, _SWEEP_GRID, reference)
    np.testing.assert_allclose([e for _, e in curve], loop, rtol=1e-10)


def test_sweep_on_two_nodes():
    K = np.array([[2.0, 1.0], [1.0, 3.0]])
    reference = np.array([1.0, -1.0])
    for A in (np.eye(2), neumann_penalty(2).matrix):
        p = _problem(K, A, K @ reference + np.array([0.05, -0.02]))
        best, curve = alpha_sweep(p, _SWEEP_GRID, reference)
        loop = _per_weight_curve(p, _SWEEP_GRID, reference)
        np.testing.assert_allclose([e for _, e in curve], loop, rtol=1e-10)
        assert best.alpha == _SWEEP_GRID.values[int(np.argmin(loop))]
    cfg = experiments.ExperimentConfig(example=2, test_function=3, n=2, epsilon=0.02)
    for penalty in ("identity", "a1", "a2", "a3"):
        sol, err = experiments.run_cell(replace(cfg, penalty=penalty), 0)
        assert np.isfinite(err) and sol.alpha in cfg.alpha_grid.values


def _centrosymmetric(n, seed):
    B = np.random.default_rng(seed).standard_normal((n, n))
    B = B + B.T
    return 0.5 * (B + B[::-1, ::-1])  # exactly symmetric and centrosymmetric


def _counted(build, split=True):
    """build() with the pencil stage's decompositions counted: (its value or
    the IllPosedProblemError it raised, (np.linalg.cholesky calls,
    np.linalg.eigh calls)).  Only calls made while ``_pencil_basis`` runs
    count, so the sweep's fallback Cholesky solves do not.  split=False
    makes every pencil take the one-block path."""
    calls = {"cholesky": 0, "eigh": 0}
    inside = []
    real_basis = regularization._pencil_basis

    def basis(*args):
        inside.append(1)
        try:
            return real_basis(*args)
        finally:
            inside.pop()

    def counting(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += bool(inside)
            return real(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as m:
        m.setattr(regularization, "_pencil_basis", basis)
        for name in calls:
            m.setattr(regularization.np.linalg, name, counting(name))
        if not split:
            m.setattr(discretization, "_is_centrosymmetric", lambda matrix: False)
        try:
            value = build()
        except IllPosedProblemError as exc:
            value = exc
    return value, (calls["cholesky"], calls["eigh"])


def _assert_pencil_basis(pencil):
    """V'(K'K + A'A)V = I and V'A'AV diagonal, to roundoff times cond, and
    the pencil's mu in [0, 1] gives the diagonals of the definition:
    ||Kv_i||^2 = 1 - mu_i and ||Av_i||^2 = mu_i, to the same tolerance."""
    V, mu = pencil._basis, pencil._mu
    M = pencil._KtK + pencil._AtA
    lam = np.linalg.eigvalsh(M)
    tol = 1e3 * np.finfo(float).eps * lam[-1] / lam[0]
    assert np.max(np.abs(V.T @ M @ V - np.eye(len(V)))) <= tol
    D = V.T @ pencil._AtA @ V
    assert np.max(np.abs(D - np.diag(np.diag(D)))) <= tol
    assert np.all((mu >= 0.0) & (mu <= 1.0))
    assert np.max(np.abs(np.sum((pencil._K @ V) ** 2, axis=0) - (1.0 - mu))) <= tol
    assert np.max(np.abs(np.sum((pencil._A @ V) ** 2, axis=0) - mu)) <= tol


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 2),
    st.sampled_from(["identity", "dirichlet", "neumann", "random"]),
    st.floats(min_value=0.0, max_value=4.0),
    st.sampled_from([None, "even", "odd"]),
)
def test_split_pencil_matches_the_definition(n, seed, penalty, decay, null):
    # a symmetric centrosymmetric K with eigenvalues 1 down to 10^-decay
    _, Q = np.linalg.eigh(_centrosymmetric(n, seed))
    K = (Q * np.logspace(0.0, -decay, n)) @ Q.T
    K = 0.5 * (K + K.T)
    K = 0.5 * (K + K[::-1, ::-1])
    if penalty == "identity":
        A = np.eye(n)
    elif penalty == "random":
        A = _centrosymmetric(n, seed + 1)
    else:
        assume(n >= 2)
        A = (dirichlet_penalty if penalty == "dirichlet" else neumann_penalty)(n).matrix
    if null is not None:
        # project an even or an odd vector out of both K and A: the pencil
        # is singular, and the floor must reject it on either path
        assume(null == "even" or n >= 2)
        u = np.ones(n) if null == "even" else np.sign(n - 1 - 2.0 * np.arange(n))
        u /= np.linalg.norm(u)
        P = np.eye(n) - np.outer(u, u)
        K, A = P @ K @ P, A @ P
    pencil, calls = _counted(lambda: TikhonovPencil(_op(K), _op(A)))
    one_block, one_block_calls = _counted(lambda: TikhonovPencil(_op(K), _op(A)), split=False)
    if null is not None:
        assert isinstance(pencil, IllPosedProblemError)
        assert isinstance(one_block, IllPosedProblemError)
        # the pivot floor is checked before any whitening: no eigh runs, and
        # a split pencil stops at the first block whose factorization fails
        assert calls[1] == one_block_calls[1] == 0
        assert calls[0] in (1, 2) and one_block_calls[0] == 1
        return
    # the split was taken: one Cholesky and one eigh per block
    assert (calls, one_block_calls) == ((2, 2), (1, 1))
    V = pencil._basis
    assert np.all(np.all(V[::-1] == V, axis=0) | np.all(V[::-1] == -V, axis=0))
    _assert_pencil_basis(pencil)
    rng = np.random.default_rng(seed + 2)
    reference = rng.standard_normal(n)
    g = K @ reference + 0.1 * rng.standard_normal(n)
    _assert_sweep_matches_per_weight_solves(TikhonovProblem(pencil, g), reference)


def test_data_penalty_pencil_is_one_block():
    # a3 is built from the noisy data, so its A'A is not centrosymmetric and
    # the pencil keeps the one-block recipe: one Cholesky and one eigh
    K = experiments.forward_matrix(2, 100, "graph")
    rng = np.random.default_rng(0)
    g = K.matrix @ np.sin(np.pi * K.grid.nodes) + 0.02 * rng.standard_normal(100)
    A = data_graph_laplacian(g, SimilarityParams(r=20, sigma=0.01))
    assert discretization._is_centrosymmetric(K.matrix.T @ K.matrix)
    assert not discretization._is_centrosymmetric(A.matrix.T @ A.matrix)
    pencil, calls = _counted(lambda: TikhonovPencil(K, A))
    assert calls == (1, 1)
    _assert_pencil_basis(pencil)


def _upper_factor(n, seed):
    B = np.random.default_rng(seed).standard_normal((n, n))
    return np.linalg.cholesky(B @ B.T + n * np.eye(n), upper=True)


_BLOCK = regularization._TRIANGULAR_BLOCK


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 300])
def test_upper_inverse_matches_numpy_inverse(n):
    # the recursive 2x2 blocking gives np.linalg.inv's inverse of the
    # triangular factor to roundoff, written over R, with exact zeros below
    # the diagonal; up to the cut-off it is np.linalg.inv itself
    R = _upper_factor(n, n)
    expected = np.linalg.inv(R)
    X = regularization._upper_inverse(R)
    assert X is R
    assert not np.any(np.tril(X, -1))
    if n <= _BLOCK:
        np.testing.assert_array_equal(X, expected)
    assert np.max(np.abs(X - expected)) <= 1e-14 * np.max(np.abs(expected))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=20.0),
    st.booleans(),
)
def test_pivot_floor_rejects_only_what_the_eigenvalue_floor_rejects(n, seed, decay, diagonal):
    # an SPD block with eigenvalues 1 down to 10^-decay, in a random or the
    # identity eigenbasis: when the pivot floor (or a failed factorization)
    # rejects it, its smallest eigenvalue is below the eigenvalue floor, up
    # to the backward error n eps lam_max that both computations carry
    lam = np.logspace(0.0, -decay, n)
    Q = np.eye(n) if diagonal else np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    M = (Q * lam) @ Q.T
    M = 0.5 * (M + M.T)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(discretization, "_is_centrosymmetric", lambda matrix: False)
        try:
            regularization._pencil_basis(M, np.zeros((n, n)))
        except IllPosedProblemError:
            eig = np.linalg.eigvalsh(M)
            slack = n * np.finfo(float).eps * eig[-1]
            assert eig[0] <= regularization._KERNEL_TOL * eig[-1] + slack


def test_singular_pencils_are_rejected_by_failed_factors_and_tiny_pivots(monkeypatch):
    # K and A share an even or an odd null vector, so one block of K'K + A'A
    # is exactly singular; in float64 its Cholesky factorization either fails
    # or returns a pivot near eps, and both must raise before any eigh
    cases = []
    for null in ("even", "odd"):
        for n, seed in ((4, 0), (4, 1), (4, 3), (5, 2), (9, 3)):
            _, Q = np.linalg.eigh(_centrosymmetric(n, seed))
            K = (Q * np.logspace(0.0, -1.0, n)) @ Q.T
            K = 0.5 * (K + K.T)
            K = 0.5 * (K + K[::-1, ::-1])
            u = np.ones(n) if null == "even" else np.sign(n - 1 - 2.0 * np.arange(n))
            u /= np.linalg.norm(u)
            P = np.eye(n) - np.outer(u, u)
            cases.append((null, _op(P @ K @ P), _op(P)))
    outcomes = []
    real_cholesky = np.linalg.cholesky

    def cholesky(M, upper):
        try:
            R = real_cholesky(M, upper=upper)
        except np.linalg.LinAlgError:
            outcomes.append("fails")
            raise
        pivots = np.diagonal(R) ** 2
        if pivots.min() <= regularization._KERNEL_TOL * pivots.max():
            outcomes.append("tiny pivot")
        return R

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran on a singular pencil")

    monkeypatch.setattr(regularization.np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(regularization.np.linalg, "eigh", no_eigh)
    seen = set()
    for null, K, A in cases:
        outcomes.clear()
        with pytest.raises(IllPosedProblemError):
            TikhonovPencil(K, A)
        assert len(outcomes) == 1
        seen.add((null, outcomes[0]))
    assert seen == {(null, how) for null in ("even", "odd") for how in ("fails", "tiny pivot")}


@pytest.mark.parametrize("n", [2, 3, 100, 1000])
def test_tridiagonal_penalty_gram_has_the_bits_of_the_product(n):
    # identity, a1 and a2: A'A written from A's three diagonals is A.T @ A
    # bit for bit, and every other penalty takes the product itself
    for A in (np.eye(n), dirichlet_penalty(n).matrix, neumann_penalty(n).matrix):
        assert regularization._gram(A).tobytes() == (A.T @ A).tobytes()
    rng = np.random.default_rng(n)
    tridiagonal = np.triu(np.tril(rng.standard_normal((n, n)), 1), -1)
    np.testing.assert_allclose(regularization._gram(tridiagonal), tridiagonal.T @ tridiagonal, rtol=1e-13, atol=1e-13)
    dense = _graph_laplacian(rng, n)
    assert regularization._gram(dense).tobytes() == (dense.T @ dense).tobytes()


def test_pencil_tests_each_matrix_for_centrosymmetry_once(monkeypatch):
    # the split's own test decides, A'A first: a split pencil tests K'K and
    # A'A once each, and a data penalty only A'A, which fails it
    calls = []
    real = discretization._is_centrosymmetric
    monkeypatch.setattr(discretization, "_is_centrosymmetric", lambda m: calls.append(1) or real(m))
    K = experiments.forward_matrix(2, 100, "graph")
    g = K.matrix @ np.sin(np.pi * K.grid.nodes) + 0.02 * np.random.default_rng(0).standard_normal(100)
    a3 = data_graph_laplacian(g, SimilarityParams(r=20, sigma=0.01))
    for A, checks in ((_op(np.eye(100)), 2), (neumann_penalty(100), 2), (a3, 1)):
        calls.clear()
        TikhonovPencil(K, A)
        assert len(calls) == checks


@pytest.mark.parametrize("n", [2, 3])
def test_smallest_fixed_penalty_cells_split_their_pencils(n):
    # run_cell on the fixed penalties at n = 2 and 3 (one odd/even pair each,
    # and a middle node at n = 3) takes the split and chooses what the
    # per-weight definition chooses
    captured = []
    real = experiments.alpha_sweep

    def spy(p, grid, reference):
        captured.append((p, reference))
        return real(p, grid, reference)

    cfg = experiments.ExperimentConfig(example=2, test_function=3, n=n, epsilon=0.02)
    for method in ("graph", "galerkin"):
        for penalty in ("identity", "a1", "a2"):
            config = replace(cfg, method=method, penalty=penalty)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(experiments, "alpha_sweep", spy)
                (best, err), calls = _counted(lambda: experiments.run_cell(config, 0))
            assert calls == (2, 2), (method, penalty)
            p, reference = captured[-1]
            _assert_pencil_basis(p.pencil)
            loop = np.array(_per_weight_curve(p, config.alpha_grid, reference))
            j = int(np.flatnonzero(loop == loop.min()).max())  # ties: smallest alpha
            assert best.alpha == config.alpha_grid.values[j], (method, penalty)
            np.testing.assert_allclose(err, loop[j], rtol=1e-8)


@pytest.mark.parametrize("table,penalty", [(4, "identity"), (5, "matched")])
def test_roundoff_decided_cells_keep_the_normal_equation_solve(monkeypatch, table, penalty):
    # the RRE curves of these cells are flat below float64 roundoff of the
    # Cholesky solve, so the sweep must fall back to it at the chosen alpha
    captured = {}
    real = experiments.alpha_sweep

    def spy(p, grid, reference):
        captured["problem"] = p
        return real(p, grid, reference)

    monkeypatch.setattr(experiments, "alpha_sweep", spy)
    config = replace(experiments.TABLES[table].template, method="graph", penalty=penalty)
    best, _ = experiments.run_cell(config, 0)
    direct = tikhonov_solve(captured["problem"], best.alpha**2)
    np.testing.assert_array_equal(best.solution, direct)


def _traced_cell(monkeypatch, config, seed, factor=regularization._FALLBACK_FACTOR):
    """run_cell with the sweep's fallback factor set to ``factor``: the best
    solution, the swept (problem, reference) and the weights solved by
    ``tikhonov_solve``.  An infinite factor solves every uncertified column."""
    swept, solved = [], []
    real_sweep, real_solve = experiments.alpha_sweep, regularization.tikhonov_solve

    def sweep(p, grid, reference):
        swept.append((p, reference))
        return real_sweep(p, grid, reference)

    def solve(p, weight):
        solved.append(weight)
        return real_solve(p, weight)

    with monkeypatch.context() as m:
        m.setattr(experiments, "alpha_sweep", sweep)
        m.setattr(regularization, "tikhonov_solve", solve)
        m.setattr(regularization, "_FALLBACK_FACTOR", factor)
        best, _ = experiments.run_cell(config, seed)
    return best, swept[0], solved


_EX2_N100 = experiments.ExperimentConfig(example=2, test_function=3, n=100, epsilon=0.02)


def test_sweep_solves_each_uncertified_column_once_through_the_module(monkeypatch):
    # the fallback looks tikhonov_solve up on the module at every call, so a
    # wrapper there (the benchmark's tracer counts calls this way) sees each
    # solved column once; the chosen column here is one of them
    config = replace(experiments.TABLES[4].template, method="graph", penalty="identity")
    best, (p, reference), solved = _traced_cell(monkeypatch, config, 0)
    assert solved and len(set(solved)) == len(solved)
    assert set(solved) <= set(config.alpha_grid.values ** 2)
    assert best.alpha**2 in solved
    np.testing.assert_array_equal(best.solution, tikhonov_solve(p, best.alpha**2))


def test_columns_that_cannot_be_the_minimum_are_not_solved(monkeypatch):
    # columns 48-49 of this cell are not certified, and their per-weight RRE
    # is over 200 times the best one: the sweep solves neither of them and
    # still picks the definition's minimum
    config = replace(_EX2_N100, method="galerkin", penalty="a1")
    _, _, every = _traced_cell(monkeypatch, config, 1, np.inf)
    grid = config.alpha_grid.values
    assert set(every) == {a**2 for a in grid[48:]}
    best, (p, reference), solved = _traced_cell(monkeypatch, config, 1)
    assert solved == []
    loop = np.array(_per_weight_curve(p, config.alpha_grid, reference))
    assert np.all(loop[48:] >= 200.0 * loop.min())
    j = int(np.flatnonzero(loop == loop.min()).max())  # ties: smallest alpha
    assert best.alpha == grid[j]
    np.testing.assert_allclose(best.rre, loop[j], rtol=1e-10)


def test_skipped_columns_cannot_undercut_the_chosen_one(monkeypatch):
    # on every method x penalty cell of example 2 and on table 5's cells, the
    # sweep chooses what solving every uncertified column chooses, bit for
    # bit, and every column it skips has a per-weight RRE above the chosen one
    t5 = experiments.TABLES[5].template
    configs = [
        replace(_EX2_N100, method=method, penalty=penalty)
        for method in ("graph", "galerkin")
        for penalty in ("identity", "a1", "a2", "a3")
    ] + [replace(t5, method=method) for method in ("graph", "galerkin")]
    skipped = 0
    for config in configs:
        for seed in range(4):
            best, (p, reference), solved = _traced_cell(monkeypatch, config, seed)
            every, _, uncertified = _traced_cell(monkeypatch, config, seed, np.inf)
            assert (best.alpha, best.rre) == (every.alpha, every.rre)
            np.testing.assert_array_equal(best.solution, every.solution)
            for weight in set(uncertified) - set(solved):
                assert rre(tikhonov_solve(p, weight), reference) > best.rre
                skipped += 1
    assert skipped > 0


def test_pipeline_pencils_read_their_diagonals_from_mu(monkeypatch):
    # every pencil the cells build at n = 100 (both examples, both methods,
    # every penalty): the sweep's diagonals 1 - mu and mu are the column
    # norms ||KV||^2 and ||AV||^2 that define them
    captured = []
    real = experiments.alpha_sweep

    def spy(p, grid, reference):
        captured.append(p.pencil)
        return real(p, grid, reference)

    monkeypatch.setattr(experiments, "alpha_sweep", spy)
    for example in (1, 2):
        for method in ("graph", "galerkin"):
            for penalty in experiments.PENALTY_NAMES:
                config = replace(_EX2_N100, example=example, method=method, penalty=penalty)
                experiments.run_cell(config, 0)
                _assert_pencil_basis(captured[-1])
    assert len(captured) == 20


def test_closed_form_frobenius_norm_matches_the_formed_matrix(monkeypatch):
    # ||K'K + w A'A||_F as the sweep and the fallback solve take it, from the
    # pencil's three Frobenius products, against the norm of the formed matrix:
    # the identity, a1, a2 and a3 pencils at n = 100, every default grid
    # weight, one weight at a time as the fallback passes it too
    captured = []
    real = experiments.alpha_sweep

    def spy(p, grid, reference):
        captured.append(p.pencil)
        return real(p, grid, reference)

    monkeypatch.setattr(experiments, "alpha_sweep", spy)
    weights = AlphaGrid().values ** 2
    for method in ("graph", "galerkin"):
        for penalty in ("identity", "a1", "a2", "a3"):
            experiments.run_cell(replace(_EX2_N100, method=method, penalty=penalty), 0)
            pen = captured[-1]
            closed = regularization._frobenius_norm(pen, weights)
            direct = [np.linalg.norm(pen._KtK + w * pen._AtA, "fro") for w in weights]
            np.testing.assert_allclose(closed, direct, rtol=1e-12, atol=0)
            assert [regularization._frobenius_norm(pen, float(w)) for w in weights] == list(closed)


def test_a2_sweep_down_to_tiny_alpha_is_finite(monkeypatch):
    # at w = 1e-28 the diagonal is 1 - mu, about 5e-12 on the highest
    # frequencies of the a2 pencil: the curve and the solution stay finite
    grid = AlphaGrid(max=1e3, min=1e-14, count=60)
    curves = []
    real = experiments.alpha_sweep

    def spy(p, grid, reference):
        best, curve = real(p, grid, reference)
        curves.append(curve)
        return best, curve

    monkeypatch.setattr(experiments, "alpha_sweep", spy)
    for method in ("graph", "galerkin"):
        config = replace(_EX2_N100, method=method, penalty="a2", alpha_grid=grid)
        best, err = experiments.run_cell(config, 0)
        assert np.all(np.isfinite(best.solution)) and np.isfinite(err)
        assert np.all(np.isfinite(np.array(curves[-1])))
        assert best.alpha in grid.values


_WIDE_GRID = AlphaGrid(max=1e12, min=1e6, count=20)


def test_lstsq_rescues_cell(monkeypatch):
    # on this wide grid Cholesky of K'K + w A'A fails at one weight and the
    # stacked least-squares solve is what keeps the cell alive.  Which seed
    # fails is decided by the last bits of the data, so the seed and the
    # pinned values follow the data synthesis.
    calls = []
    real = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(regularization.np.linalg, "lstsq", spy)
    cfg = experiments.ExperimentConfig(
        example=2, test_function=3, n=200, epsilon=0.01, penalty="a3", alpha_grid=_WIDE_GRID
    )
    sol, err = experiments.run_cell(cfg, 9)
    assert calls
    assert sol.alpha in _WIDE_GRID.values
    np.testing.assert_allclose([sol.alpha, err], [3.793e7, 0.4981], rtol=1e-3)


def test_wide_grid_beyond_rescue_is_ill_posed():
    cfg = experiments.ExperimentConfig(
        example=2, test_function=3, n=100, epsilon=0.01, penalty="a3", alpha_grid=_WIDE_GRID
    )
    with pytest.raises(IllPosedProblemError):
        experiments.run_cell(cfg, 0)


def _cho_factor_solve(p, weight):
    """The normal-equation solve as scipy's cho_factor/cho_solve define it,
    stacked least squares if that misses the optimality bound."""
    pen = p.pencil
    M = pen._KtK + weight * pen._AtA
    norm_M, norm_Ktg = np.linalg.norm(M, "fro"), np.linalg.norm(p._Ktg)

    def optimal(f):
        gap = np.linalg.norm(M @ f - p._Ktg)
        return regularization._optimal(gap, norm_Ktg, norm_M, np.linalg.norm(f))

    try:
        f = sla.cho_solve(sla.cho_factor(M, check_finite=False), p._Ktg, check_finite=False)
        if optimal(f):
            return f, "cholesky"
    except sla.LinAlgError:
        pass
    top = np.vstack([pen._K, np.sqrt(weight) * pen._A])
    rhs = np.concatenate([p.data, np.zeros(pen._A.shape[0])])
    return np.linalg.lstsq(top, rhs, rcond=None)[0], "lstsq"


def _assert_solves_like_cho_factor(p, weight):
    """numpy's upper Cholesky factor has the bits of scipy's, fails where
    scipy's fails, and the solve returns the definition's vector bit for bit."""
    M = p.pencil._KtK + weight * p.pencil._AtA
    try:
        c, lower = sla.cho_factor(M, check_finite=False)
    except sla.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M, upper=True)
    else:
        assert not lower
        np.testing.assert_array_equal(np.linalg.cholesky(M, upper=True), np.triu(c))
    expected, path = _cho_factor_solve(p, weight)
    got = tikhonov_solve(p, weight)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
    return path


@pytest.mark.parametrize("n", [2, 7, 100, 257])
def test_cholesky_solve_matches_cho_factor_on_random_spd(n):
    rng = np.random.default_rng(n)
    K = rng.standard_normal((n, n))
    p = _problem(K, np.eye(n), rng.standard_normal(n))
    for weight in (1e-3, 1.0, 1e3):
        assert _assert_solves_like_cho_factor(p, weight) == "cholesky"


def test_cholesky_solve_matches_cho_factor_on_pipeline_pencils(monkeypatch):
    # the table-cell pencils at both ends of the default alpha grid
    captured = []
    real = experiments.alpha_sweep

    def spy(p, grid, reference):
        captured.append(p)
        return real(p, grid, reference)

    monkeypatch.setattr(experiments, "alpha_sweep", spy)
    base = experiments.ExperimentConfig(example=2, test_function=3, n=100, epsilon=0.02)
    ends = (base.alpha_grid.max**2, base.alpha_grid.min**2)
    paths = set()
    for method in ("graph", "galerkin"):
        for penalty in ("identity", "a1", "a2", "a3"):
            experiments.run_cell(replace(base, method=method, penalty=penalty), 0)
            for weight in ends:
                paths.add(_assert_solves_like_cho_factor(captured[-1], weight))
    assert "cholesky" in paths


def test_non_positive_definite_fails_on_both_sides_and_reaches_lstsq(monkeypatch):
    # at weight 1e20 the identity vanishes in K'K + w A'A below roundoff,
    # so the computed M is singular although the pencil is not
    calls = []
    real = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    p = _problem(np.eye(2), [[1.0, 1.0], [0.0, 0.0]], [1.0, -2.0])
    M = p.pencil._KtK + 1e20 * p.pencil._AtA
    with pytest.raises(sla.LinAlgError):
        sla.cho_factor(M, check_finite=False)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(M, upper=True)
    monkeypatch.setattr(regularization.np.linalg, "lstsq", spy)
    f = tikhonov_solve(p, 1e20)
    assert calls
    expected, path = _cho_factor_solve(p, 1e20)
    assert path == "lstsq"
    np.testing.assert_array_equal(f, expected)
