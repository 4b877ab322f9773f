"""Tikhonov solves, the SVD filter shortcut and the parameter sweep."""
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtik import experiments, regularization
from graphtik.discretization import DiscreteOperator, Grid
from graphtik.errors import IllPosedProblemError, ParameterError
from graphtik.metrics import rre
from graphtik.penalty import neumann_penalty
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
    return TikhonovProblem(_op(K), _op(A), np.asarray(g, dtype=float))


def test_identity_shrinkage():
    # K = A = I: minimizer of |f-g|^2 + a|f|^2 is g/(1+a)
    g = np.array([3.0, -1.0])
    for a in (0.5, 1.0, 10.0):
        sol = tikhonov_solve(_problem(np.eye(2), np.eye(2), g), a)
        np.testing.assert_allclose(sol.solution, g / (1.0 + a), rtol=1e-12)
        np.testing.assert_allclose(sol.residual_norm, a / (1.0 + a) * np.linalg.norm(g), rtol=1e-10)


def test_partial_penalty():
    # penalty acting on the second coordinate only
    sol = tikhonov_solve(_problem(np.eye(2), np.diag([0.0, 1.0]), [1.0, 1.0]), 1.0)
    np.testing.assert_allclose(sol.solution, [1.0, 0.5], rtol=1e-12)


def test_shrinkage_monotone_in_alpha():
    rng = np.random.default_rng(0)
    K = rng.standard_normal((8, 8))
    g = rng.standard_normal(8)
    p = _problem(K, np.eye(8), g)
    alphas = np.logspace(-4, 4, 9)
    norms = [np.linalg.norm(tikhonov_solve(p, a).solution) for a in alphas]
    residuals = [tikhonov_solve(p, a).residual_norm for a in alphas]
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
        tikhonov_solve(psum, a).solution,
        tikhonov_solve(p1, a).solution + tikhonov_solve(p2, a).solution,
        atol=1e-10,
    )


def test_shared_null_direction_rejected():
    with pytest.raises(IllPosedProblemError):
        _problem(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), [1.0, 1.0])
    # singular pencil with no exact zero: eigmin(K'K + A'A) = 1e-14 sits
    # below the 1e-12 relative floor
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
        (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), [1.0, np.nan]),
    ],
    ids=["nan-data", "inf-data", "inf-penalty", "nan-forward", "nan-data-singular-pencil"],
)
def test_non_finite_input_rejected(K, A, g):
    # a configuration error (exit 1), raised before any decomposition
    with pytest.raises(ParameterError, match="non-finite"):
        _problem(K, A, g)


def test_construction_validation():
    with pytest.raises(ParameterError):
        TikhonovProblem(_op(np.eye(2)), _op(np.eye(2), Grid(2, "midpoint")), np.ones(2))
    with pytest.raises(ParameterError):
        _problem(np.eye(2), np.eye(2), np.ones(3))
    with pytest.raises(ParameterError):
        tikhonov_solve(_problem(np.eye(2), np.eye(2), np.ones(2)), 0.0)


def test_filter_equals_identity_penalty_solve():
    rng = np.random.default_rng(5)
    K = rng.standard_normal((20, 20))
    g = rng.standard_normal(20)
    p = _problem(K, np.eye(20), g)
    svd = np.linalg.svd(K)
    for a in (1e-6, 1e-2, 10.0):
        f_filter = filter_solution(svd, g, a)
        f_solve = tikhonov_solve(p, a).solution
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
    with pytest.raises(ParameterError):
        filter_solution(np.linalg.svd(K), g, -1.0)


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
        for value in (float("inf"), float("nan")):
            with pytest.raises(ParameterError, match=f"alpha_grid {name} must be finite"):
                AlphaGrid(**{name: value})


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
    np.testing.assert_allclose(direct.solution, best.solution, rtol=1e-12)


def test_sweep_tie_takes_smallest_alpha():
    # zero data gives the zero solution at every weight, so every rre ties
    p = _problem(np.eye(4), np.eye(4), np.zeros(4))
    grid = AlphaGrid(max=10.0, min=0.1, count=7)
    best, curve = alpha_sweep(p, grid, np.ones(4))
    assert all(err == 1.0 for _, err in curve)
    assert best.alpha == grid.values.min()


def test_shared_pencil_sweeps_like_a_fresh_problem():
    # the pencil stage depends only on (K, A): reusing it for another data
    # vector changes no bit of the sweep
    rng = np.random.default_rng(4)
    K, A = _op(rng.standard_normal((9, 9))), _op(neumann_penalty(9).matrix)
    pencil = TikhonovPencil(K, A)
    reference = rng.standard_normal(9)
    for _ in range(3):
        g = K.matrix @ reference + 0.1 * rng.standard_normal(9)
        shared, shared_curve = alpha_sweep(TikhonovProblem(K, A, g, pencil), _SWEEP_GRID, reference)
        fresh, fresh_curve = alpha_sweep(TikhonovProblem(K, A, g), _SWEEP_GRID, reference)
        assert shared_curve == fresh_curve
        np.testing.assert_array_equal(shared.solution, fresh.solution)


def test_pencil_must_come_from_the_problem_operators():
    K, A = _op(np.eye(2)), _op(np.eye(2))
    with pytest.raises(ParameterError, match="other operators"):
        TikhonovProblem(K, _op(np.eye(2)), np.ones(2), TikhonovPencil(K, A))


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
    f = tikhonov_solve(_problem(K, np.eye(n), g), alpha).solution
    M = K.T @ K + alpha * np.eye(n)
    gap = np.linalg.norm(M @ f - K.T @ g)
    assert gap <= 1e-6 * max(np.linalg.norm(K.T @ g), 1e-30)


def _per_weight_curve(p, grid, reference):
    """The definition: one normal-equation solve per grid weight alpha^2."""
    return [rre(tikhonov_solve(p, a**2).solution, reference) for a in grid.values]


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
    config = replace(experiments._deblur_template(table), method="graph", penalty=penalty)
    best, _ = experiments.run_cell(config, 0)
    direct = tikhonov_solve(captured["problem"], best.alpha**2).solution
    np.testing.assert_array_equal(best.solution, direct)


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
    got = tikhonov_solve(p, weight).solution
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
    f = tikhonov_solve(p, 1e20).solution
    assert calls
    expected, path = _cho_factor_solve(p, 1e20)
    assert path == "lstsq"
    np.testing.assert_array_equal(f, expected)
