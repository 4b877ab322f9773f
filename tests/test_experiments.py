"""Cell runner, table reproduction, figure data and the README quick start."""
import json
import pathlib
import re
import tracemalloc
from dataclasses import fields, replace
from math import ceil, sqrt

import numpy as np
import pytest
import scipy.linalg as sla

from graphtik import discretization, experiments, regularization
from graphtik.discretization import (
    DiscreteOperator,
    Grid,
    _even_odd_blocks,
    _even_odd_solve,
    build_galerkin_operator,
    build_schrodinger_operator,
    pseudo_inverse,
    toeplitz_stencil,
)
from graphtik.errors import NumericalFailure, ParameterError
from graphtik.experiments import (
    ExperimentConfig,
    continuous_spectrum,
    diagnostic_matrix,
    discrete_spectrum,
    emit_figure_data,
    forward_image_error,
    forward_matrix,
    run_cell,
    run_table,
)
from graphtik.metrics import lsre, max_abs_error, msre
from graphtik.penalty import SimilarityParams, data_graph_laplacian, dirichlet_penalty, neumann_penalty
from graphtik.problems import EXAMPLES, NoiseModel, add_noise, get_example, get_test_function, synthesize_data
from graphtik.regularization import AlphaGrid, TikhonovPencil, TikhonovProblem, alpha_sweep
from graphtik.reporting import config_hash, report_to_json


def test_config_roundtrip():
    cfg = ExperimentConfig(example=1, test_function=2, n=64, epsilon=0.05, seeds=(1, 2))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


@pytest.mark.parametrize(
    "cfg,digest",
    [
        (ExperimentConfig(), "e8c2fea1e9db"),
        (
            ExperimentConfig(
                example=1,
                test_function=2,
                n=64,
                epsilon=0.05,
                seeds=(1, 2),
                method="galerkin",
                penalty="a3",
                alpha_grid=AlphaGrid(max=10.0, min=1e-3, count=7),
            ),
            "09039032f962",
        ),
    ],
)
def test_config_hash_pinned(cfg, digest):
    # the deblur CSV header hashes to_dict(); these digests are what earlier
    # releases wrote, so the codec must keep every field, key and type
    assert config_hash(cfg.to_dict()) == digest
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_partial_alpha_grid():
    cfg = ExperimentConfig.from_dict({"alpha_grid": {"count": 7}})
    assert cfg.alpha_grid == AlphaGrid(max=1e3, min=1e-6, count=7)


def test_config_rejects_unknown_fields():
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"example": 1, "kernel": "gauss"})


@pytest.mark.parametrize(
    "raw",
    [
        {"n": "100"},
        {"n": True},
        {"example": 1.0},
        {"epsilon": "0.1"},
        {"method": 3},
        {"seeds": 3},
        {"seeds": ["0"]},
        {"alpha_grid": 5},
        {"alpha_grid": {"count": 7.5}},
        {"alpha_grid": {"max": "1e3"}},
        {"alpha_grid": {"cnt": 7}},
        [["n", 100]],
    ],
)
def test_config_rejects_mistyped_fields(raw):
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict(raw)


def test_config_accepts_an_integer_where_a_float_is_expected():
    cfg = ExperimentConfig.from_dict({"epsilon": 0, "alpha_grid": {"max": 100, "count": 7}})
    assert cfg.epsilon == 0.0
    assert cfg.alpha_grid == AlphaGrid(max=100.0, min=1e-6, count=7)


@pytest.mark.parametrize(
    "field,as_int,as_float,raw",
    [
        *[
            pytest.param(f.name, 1, 1.0, 1, id=f.name)
            for f in fields(ExperimentConfig)
            if type(f.default) is float
        ],
        pytest.param("alpha_grid", AlphaGrid(max=100), AlphaGrid(max=100.0), {"max": 100}, id="alpha_grid"),
    ],
)
def test_config_integer_and_float_values_hash_alike(field, as_int, as_float, raw):
    # equal configs must write one header hash, whether a float field was
    # given as an integer or as a float (1 is valid in every float field),
    # and whether the config was made by the constructor, by replace or
    # from a dict (raw is as_int as a JSON value)
    want = ExperimentConfig(**{field: as_float})
    for got in (
        ExperimentConfig(**{field: as_int}),
        replace(ExperimentConfig(), **{field: as_int}),
        ExperimentConfig.from_dict({field: raw}),
    ):
        assert got == want
        assert hash(got) == hash(want)
        assert config_hash(got.to_dict()) == config_hash(want.to_dict())


def test_config_seeds_are_stored_as_a_tuple_of_ints():
    want = ExperimentConfig(seeds=(0, 1))
    for seeds in ([0, 1], tuple(np.arange(2))):
        got = ExperimentConfig(seeds=seeds)
        assert got == want
        assert hash(got) == hash(want)
        assert config_hash(got.to_dict()) == config_hash(want.to_dict())


@pytest.mark.parametrize(
    "field,value",
    [
        ("example", 3),
        ("test_function", 0),
        ("n", 1),
        ("epsilon", -0.1),
        ("seeds", ()),
        ("method", "collocation"),
        ("penalty", "tv"),
        ("r_fraction", 0.0),
        ("r_fraction", 1.5),
        ("sigma", 0.0),
        ("data_mode", "exact"),
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("sigma", float("nan")),
        ("sigma", float("inf")),
        ("n", 10.0),
        ("seeds", (0.5,)),
        ("example", True),
        ("alpha_grid", 5),
        ("alpha_grid", {"max": 10.0}),
        # finite as an integer, but not as a float
        pytest.param("epsilon", 10**400, id="epsilon-10**400"),
        pytest.param("sigma", 10**400, id="sigma-10**400"),
        # positive, but its square, which the similarity weights divide by, underflows
        ("sigma", 1e-300),
        # a repeated seed would count twice in a table's medians
        ("seeds", (1, 1)),
    ],
)
def test_config_validation(field, value):
    with pytest.raises(ParameterError):
        ExperimentConfig(**{field: value})
    with pytest.raises(ParameterError):
        replace(ExperimentConfig(), **{field: value})


def test_forward_matrices_share_grid():
    Kg = forward_matrix(2, 12, "graph")
    Kb = forward_matrix(2, 12, "galerkin")
    assert Kg.grid == Kb.grid
    assert Kg.grid.convention == "interior"
    with pytest.raises(ParameterError):
        forward_matrix(2, 12, "spectral")
    # equal but mistyped arguments are refused even once (2, 12) is cached
    for args in ((2.0, 12, "graph"), (2, 12.0, "graph"), (True, 12, "graph")):
        with pytest.raises(ParameterError):
            forward_matrix(*args)


@pytest.mark.parametrize("method", ["graph", "galerkin"])
def test_cached_forward_matrix_is_read_only(method):
    # every table, figure and cell of the process shares the cached array,
    # so an in-place write must fail instead of changing later results
    K = forward_matrix(2, 12, method).matrix
    before = K.copy()
    with pytest.raises(ValueError):
        K[0, 0] = 0.0
    with pytest.raises(ValueError):
        K *= 2.0
    assert forward_matrix(2, 12, method).matrix.tobytes() == before.tobytes()


def test_diagnostic_matrix_scaling():
    n = 12
    raw = forward_matrix(2, n, "galerkin").matrix
    diag = diagnostic_matrix(2, n, "galerkin").matrix
    np.testing.assert_allclose(diag, raw * (n / (n + 1.0)), rtol=1e-15)
    np.testing.assert_array_equal(
        diagnostic_matrix(2, n, "graph").matrix, forward_matrix(2, n, "graph").matrix
    )


def test_graph_forward_matrix_inverts_the_lattice_matrix():
    for ex_id in (1, 2):
        ex = EXAMPLES[ex_id]
        K = pseudo_inverse(build_schrodinger_operator(ex.potential, 100)).matrix
        np.testing.assert_array_equal(forward_matrix(ex_id, 100, "graph").matrix, ex.green_sign * K)


@pytest.mark.parametrize("n", [2, 3, 101, 1000])
def test_registered_operators_split_like_full_lapack(n):
    b = np.cos(np.arange(n))  # neither even nor odd
    for ex_id in (1, 2):
        L = build_schrodinger_operator(EXAMPLES[ex_id].potential, n).matrix
        G = diagnostic_matrix(ex_id, n, "galerkin").matrix
        for A in (L, G):
            lam = np.linalg.eigvalsh(A)
            split = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in _even_odd_blocks(A)]))
            assert np.max(np.abs(split / lam - 1.0)) <= 1e-9
        x = sla.solve(L, b, assume_a="sym")
        assert np.max(np.abs(_even_odd_solve(*_even_odd_blocks(L), b) - x)) <= 1e-9 * np.max(np.abs(x))


@pytest.mark.parametrize("example,n", [(1, 100), (2, 100), (1, 1000), (2, 1000)])
def test_forward_gram_matrices_pass_the_centrosymmetry_test(example, n):
    # the fixed-penalty pencils split only when _even_odd_blocks accepts K'K;
    # the graph K'K defect grows with n (1.3e-11 and 7.5e-12 relative at
    # n = 1000 for examples 1 and 2, against the split's 1e-10), so losing
    # that margin fails here rather than silently doubling the pencil cost
    for method in ("graph", "galerkin"):
        K = forward_matrix(example, n, method).matrix
        even, odd = _even_odd_blocks(K.T @ K)
        assert even.shape[0] + odd.shape[0] == n, method


def test_table1_graph_image_error_matches_full_solve():
    n = 1000
    ex, f = EXAMPLES[2], get_test_function(3)
    grid = Grid(n, "interior")
    L = build_schrodinger_operator(ex.potential, n).matrix
    image = ex.green_sign * sla.solve(L, f.eval(grid.nodes), assume_a="sym")
    want = max_abs_error(image, synthesize_data(ex, f, grid, "analytic"))
    assert abs(forward_image_error(2, n, 3, "graph") / want - 1.0) <= 1e-9


def test_graph_diagnostics_never_form_the_lattice_matrix(monkeypatch):
    # their blocks come from the stencil: no n x n L is built or cached, and
    # the peak of either call stays below one 1000 x 1000 float64 array
    def forbidden(*args, **kwargs):
        raise AssertionError("the graph diagnostics built L")

    monkeypatch.setattr(experiments, "build_schrodinger_operator", forbidden)
    monkeypatch.setattr(discretization, "build_schrodinger_operator", forbidden)
    experiments.discrete_spectrum.cache_clear()  # else a cached spectrum is measured
    n = 1000
    for call in (lambda: discrete_spectrum(2, n, "graph"), lambda: forward_image_error(2, n, 3, "graph")):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


def test_discrete_spectrum_sorted_positive():
    for method in ("graph", "galerkin"):
        lam = discrete_spectrum(2, 20, method)
        assert lam.shape == (20,)
        assert np.all(lam > 0.0)
        assert np.all(np.diff(lam) <= 0.0)


@pytest.mark.parametrize("method", ["graph", "galerkin"])
def test_cached_spectrum_is_read_only(method):
    # tables 2 and 3 and figure 1 share the cached array, as forward_matrix
    lam = discrete_spectrum(2, 20, method)
    before = lam.copy()
    with pytest.raises(ValueError):
        lam[0] = 0.0
    with pytest.raises(ValueError):
        lam *= 2.0
    with pytest.raises(ValueError):
        lam.base[0] = 0.0  # the ascending array under the descending view
    assert discrete_spectrum(2, 20, method) is lam
    assert lam.tobytes() == before.tobytes()


def test_cached_spectrum_refuses_mistyped_arguments():
    # equal but mistyped arguments are refused even once (1, 20) and
    # (2, 20) are cached, as for forward_matrix
    for ex_id in (1, 2):
        for method in ("graph", "galerkin"):
            discrete_spectrum(ex_id, 20, method)
    for args in ((2, 20.0, "graph"), (2.0, 20, "galerkin"), (True, 20, "graph")):
        with pytest.raises(ParameterError):
            discrete_spectrum(*args)


def test_spectral_tables_and_figure1_decompose_each_operator_once(monkeypatch):
    # tables 2 and 3 and figure 1 ask for 16 spectra of 8 operators; each
    # builds its blocks once per n in (100, 500, 1000, 2000), and figure 1's
    # n = 100 is served from the cache
    built = {"graph": [], "galerkin": []}
    real_blocks, real_split = experiments.build_schrodinger_blocks, experiments._even_odd_blocks

    def blocks(q, n):
        built["graph"].append(n)
        return real_blocks(q, n)

    def split(A):
        built["galerkin"].append(A.shape[0])
        return real_split(A)

    monkeypatch.setattr(experiments, "build_schrodinger_blocks", blocks)
    monkeypatch.setattr(experiments, "_even_odd_blocks", split)
    experiments.discrete_spectrum.cache_clear()
    run_table(2)
    run_table(3)
    emit_figure_data(1)
    for method, sizes in built.items():
        assert sorted(sizes) == [100, 500, 1000, 2000], method


def test_forward_image_error_raises_a_failed_closed_form(monkeypatch):
    # only a missing closed form falls back to the quadrature data; any
    # other error of the closed-form lookup reaches the caller
    real = experiments.synthesize_data

    def failing(example, f, grid, mode):
        if mode == "analytic":
            raise NumericalFailure("closed form is not finite")
        return real(example, f, grid, mode)

    monkeypatch.setattr(experiments, "synthesize_data", failing)
    with pytest.raises(NumericalFailure, match="closed form is not finite"):
        forward_image_error(2, 20, 3, "graph")


def test_forward_image_error_asks_for_a_closed_form_only_where_one_is_registered(monkeypatch):
    # the example's images are tested, not a failed lookup caught: example 2
    # registers no image of f1, so an analytic request for it fails loudly,
    # and the quadrature error comes back unchanged for both methods
    want = {method: forward_image_error(2, 20, 1, method) for method in ("graph", "galerkin")}
    real = experiments.synthesize_data

    def strict(example, f, grid, mode):
        assert mode != "analytic" or f.id in example.images, f"analytic data of f{f.id} under {example.id}"
        return real(example, f, grid, mode)

    monkeypatch.setattr(experiments, "synthesize_data", strict)
    for method, error in want.items():
        assert forward_image_error(2, 20, 1, method) == error


@pytest.mark.parametrize("n", [3, 20])
@pytest.mark.parametrize("method", ["graph", "galerkin"])
def test_forward_image_error_without_a_closed_form_uses_the_quadrature_data(method, n):
    # example 2 registers no closed-form image of f1: the true image is then
    # the quadrature data, and the graph image differs from the pseudoinverse
    # product by roundoff alone
    grid = Grid(n, "interior")
    f = get_test_function(1)
    u = synthesize_data(EXAMPLES[2], f, grid, "quadrature")
    want = max_abs_error(diagnostic_matrix(2, n, method).matrix @ f.eval(grid.nodes), u)
    assert abs(forward_image_error(2, n, 1, method) - want) <= 1e-12 * np.max(np.abs(u))


def test_forward_image_error_small():
    # n = 50 lattice image of f(x) = x under the second example
    assert forward_image_error(2, 50, 3, "graph") < 5e-3
    assert forward_image_error(2, 50, 3, "galerkin") < 5e-2


@pytest.mark.parametrize("n", [2, 3, 101])
@pytest.mark.parametrize("ex_id", [1, 2])
def test_galerkin_diagnostics_equal_the_weighted_definition(ex_id, n):
    # the diagnostics weight their results by n/(n+1); diagnostic_matrix
    # weights the matrix, and stays the definition they are checked against
    G = diagnostic_matrix(ex_id, n, "galerkin").matrix
    want = np.sort(np.abs(np.linalg.eigvalsh(G)))[::-1]
    np.testing.assert_allclose(discrete_spectrum(ex_id, n, "galerkin"), want, rtol=1e-12, atol=0)
    grid = Grid(n, "interior")
    f = get_test_function(3)
    u = synthesize_data(EXAMPLES[ex_id], f, grid, "analytic")
    want = max_abs_error(G @ f.eval(grid.nodes), u)
    assert abs(forward_image_error(ex_id, n, 3, "galerkin") - want) <= 1e-12 * want


def test_pipeline_runs_no_dense_factorization_in_scipy(monkeypatch):
    # numpy and scipy bundle separate OpenBLAS copies, and an O(n^3) call in
    # scipy's competes with numpy's spinning workers; only the O(n^2)
    # triangular solves of cho_solve may run there
    def forbidden(*args, **kwargs):
        raise AssertionError("dense factorization in scipy.linalg")

    for name in ("solve", "cho_factor", "lu_factor", "eigh", "eigvalsh", "svd", "inv", "lstsq"):
        monkeypatch.setattr(sla, name, forbidden)
    experiments.discrete_spectrum.cache_clear()  # else cached spectra run no eigensolve
    for n in (2, 3, 101):
        for method in ("graph", "galerkin"):
            discrete_spectrum(2, n, method)
            forward_image_error(2, n, 3, method)
    calls = []
    real = regularization.tikhonov_solve

    def spy(p, weight):
        calls.append(weight)
        return real(p, weight)

    monkeypatch.setattr(regularization, "tikhonov_solve", spy)
    base = ExperimentConfig(example=1, test_function=3, n=8, epsilon=0.01)
    for method in ("graph", "galerkin"):
        for penalty in experiments.PENALTY_NAMES:
            run_cell(replace(base, method=method, penalty=penalty), 0)
    assert calls  # the matched cells reach the Cholesky fallback


def test_run_cell_noise_free_restoration():
    cfg = ExperimentConfig(example=1, test_function=1, n=100, epsilon=0.0)
    sol, err = run_cell(cfg)
    assert err <= 1e-5
    assert sol.rre == err
    assert sol.alpha in cfg.alpha_grid.values


def test_run_cell_deterministic():
    cfg = ExperimentConfig(example=1, test_function=3, n=40, epsilon=0.05, penalty="a2")
    a, erra = run_cell(cfg, seed=4)
    b, errb = run_cell(cfg, seed=4)
    assert erra == errb
    np.testing.assert_array_equal(a.solution, b.solution)
    _, errc = run_cell(cfg, seed=5)
    assert errc != erra


def test_run_cell_matched_penalty():
    cfg = ExperimentConfig(example=1, test_function=3, n=40, epsilon=0.1, penalty="matched")
    _, err = run_cell(cfg, seed=0)
    assert err < 0.05


def test_run_table_roundtrip():
    report = run_table(4, seeds=(0,))
    assert report.roundtrip is not None and report.roundtrip["ok"]
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell["metric"] == "rre_median"
        assert np.isfinite(cell["value"])
    assert len(config_hash(report.config)) == 12


def test_roundtrip_record_names_the_first_solved_cell_and_seed(monkeypatch):
    seeds = (0, 1)
    config = replace(experiments.TABLES[5].template, method="graph", seeds=seeds)
    cell = {"example": 1, "test_function": 3, "method": "graph", "penalty": "matched"}
    record = run_table(5, seeds).roundtrip
    assert record["cell"] == cell and record["seed"] == 0 and record["ok"]
    assert record["value_reported"] == record["value_recomputed"] == run_cell(config, 0)[1]
    # with seed 0 of the first cell failing, the record moves to its seed 1
    real = experiments.run_cell

    def flaky(config, seed, pencils=None):
        if (config.method, seed) == ("graph", 0):
            raise NumericalFailure("injected failure")
        return real(config, seed, pencils)

    monkeypatch.setattr(experiments, "run_cell", flaky)
    record = run_table(5, seeds).roundtrip
    assert record["cell"] == cell and record["seed"] == 1 and record["ok"]
    assert record["value_reported"] == record["value_recomputed"] == real(config, 1)[1]


def test_run_table_json_is_reproducible():
    first, second = (report_to_json(run_table(4, (0,))) for _ in range(2))
    assert first == second
    # no wall-clock field: every key is a function of the configuration
    assert set(json.loads(first)) == {"format_version", "config_hash", "config", "cells", "roundtrip"}


def test_table_config_hash_covers_its_template_and_axes(monkeypatch):
    # sigma does not enter the identity cells of table 4, so only the hash
    # can tell this entry from the paper's
    paper = run_table(4, (0,))
    template = replace(experiments.TABLES[4].template, sigma=0.02)
    monkeypatch.setitem(experiments.TABLES, 4, replace(experiments.TABLES[4], template=template))
    edited = run_table(4, (0,))
    assert edited.cells == paper.cells
    assert config_hash(edited.config) != config_hash(paper.config)
    assert edited.config["table"] == 4
    assert edited.config["template"] == replace(template, seeds=(0,)).to_dict()
    assert edited.config["penalties"] == ["identity"]
    assert config_hash(run_table(4, (1,)).config) != config_hash(paper.config)


def test_noise_free_table_runs_one_seed():
    # table 4's template has epsilon 0, so its cells are the same at every
    # seed and it runs only the first one of the list
    assert experiments.TABLES[4].template.epsilon == 0.0
    cells = run_table(4, (3, 5)).cells
    assert cells == run_table(4, (0,)).cells
    assert [cell["seeds_used"] for cell in cells] == [1, 1]


def test_run_table_keeps_every_failing_seed(monkeypatch):
    real = experiments.run_cell

    def flaky(config, seed, pencils=None):
        if seed in (1, 3):
            raise NumericalFailure(f"injected failure {seed}")
        return real(config, seed, pencils)

    monkeypatch.setattr(experiments, "run_cell", flaky)
    report = run_table(5, seeds=(0, 1, 2, 3))
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell["seeds_used"] == 2
        assert cell["error"] == "seed 1: injected failure 1; seed 3: injected failure 3"
        assert np.isfinite(cell["value"])


@pytest.mark.parametrize("table", [6, 7])
def test_shared_pencil_cells_equal_per_seed_run_cell(table):
    # a fixed-penalty cell decomposes its pencil once for all its seeds; each
    # cell must still equal, bit for bit, the medians of independent run_cell
    # calls, which the benchmark's definition check relies on
    seeds = (0, 1, 2)
    template = experiments.TABLES[table].template
    report = run_table(table, seeds)
    assert len(report.cells) == 32
    for cell in report.cells:
        config = replace(
            template, test_function=cell["f"], method=cell["method"], penalty=cell["penalty"], seeds=seeds
        )
        runs = [run_cell(config, s) for s in seeds]
        assert cell["seeds_used"] == len(seeds) and "error" not in cell
        assert cell["value"] == float(np.median([err for _, err in runs]))
        assert cell["alpha_median"] == float(np.median([sol.alpha for sol, _ in runs]))


def test_fixed_penalty_cell_decomposes_once(monkeypatch):
    calls = {"cholesky": 0, "eigh": 0}
    real_basis = regularization._pencil_basis

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    def basis(KtK, AtA):
        # count the pencil stage's decompositions, not the fallback's Cholesky
        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(regularization.np.linalg, name, counting(name, getattr(np.linalg, name)))
            return real_basis(KtK, AtA)

    monkeypatch.setattr(regularization, "_pencil_basis", basis)
    seeds = tuple(range(5))
    template = experiments.TABLES[6].template
    # a pencil is one Cholesky and one eigh per block: the centrosymmetric
    # fixed penalties split into an even and an odd block, while a3 is one
    # block built from each seed's noisy data
    for penalty, pencils, blocks in (
        ("identity", 1, 2), ("a1", 1, 2), ("a2", 1, 2), ("a3", len(seeds), 1)
    ):
        calls.update(cholesky=0, eigh=0)
        config, cache = replace(template, penalty=penalty, seeds=seeds), {}
        results = [(s, run_cell(config, s, cache)) for s in seeds]
        assert [s for s, _ in results] == list(seeds)
        assert not any(isinstance(r, Exception) for _, r in results)
        assert calls == {"cholesky": blocks * pencils, "eigh": blocks * pencils}, penalty


def test_table_decomposes_each_fixed_penalty_pencil_once(monkeypatch):
    # a pencil depends on (method, penalty), not on the test function: table
    # 6 builds the 6 fixed-penalty pencils once for its 24 fixed-penalty
    # cells, and one a3 pencil per seed of each of its 8 a3 cells
    built = []
    real = experiments.TikhonovPencil

    def counting(K, A):
        built.append(1)
        return real(K, A)

    monkeypatch.setattr(experiments, "TikhonovPencil", counting)
    seeds = (0, 1, 2)
    report = run_table(6, seeds)
    assert all(cell["seeds_used"] == len(seeds) for cell in report.cells)
    assert len(built) == 6 + 8 * len(seeds)


def test_ill_posed_pencil_fails_every_seed_of_its_cell(monkeypatch):
    # with K = 0 the constants, in the kernel of a2 and of a3, go unpenalized
    zero = DiscreteOperator(np.zeros((100, 100)), Grid(100, "interior"))
    monkeypatch.setattr(experiments, "forward_matrix", lambda *args: zero)
    seeds = (0, 1, 2)
    want = "; ".join(f"seed {s}: penalty and forward operator share a near-null direction" for s in seeds)
    for cell in run_table(6, seeds).cells:
        if cell["penalty"] in ("a2", "a3"):
            assert cell["seeds_used"] == 0 and np.isnan(cell["value"])
            assert cell["error"] == want
        else:
            assert cell["seeds_used"] == len(seeds) and "error" not in cell
    # a failed build leaves no entry behind: every seed builds and raises again
    config, pencils = replace(experiments.TABLES[6].template, penalty="a2"), {}
    for s in range(5):
        with pytest.raises(NumericalFailure, match="share a near-null direction"):
            run_cell(config, s, pencils)
    assert pencils == {}


def test_run_table_restores_every_cell_and_seed_through_run_cell(monkeypatch):
    calls = []
    real = experiments.run_cell

    def counting(config, seed, pencils=None):
        calls.append((config.test_function, config.method, config.penalty, seed))
        return real(config, seed, pencils)

    monkeypatch.setattr(experiments, "run_cell", counting)
    seeds = (0, 1, 2)
    report = run_table(6, seeds)
    cells = [(c["f"], c["method"], c["penalty"]) for c in report.cells]
    assert len(cells) == 32
    assert sorted(calls) == sorted(cell + (s,) for cell in cells for s in seeds)


def test_non_finite_data_fails_only_its_seed(monkeypatch):
    real = experiments.add_noise

    def poisoned(g, model):
        g_eps = real(g, model)
        if model.seed == 1:
            g_eps[3] = np.nan
        return g_eps

    monkeypatch.setattr(experiments, "add_noise", poisoned)
    report = run_table(6, (0, 1, 2))
    monkeypatch.undo()
    clean = run_table(6, (0, 2))
    for cell, want in zip(report.cells, clean.cells):
        # a fixed penalty's problem rejects the data, and a3's penalty build does
        assert cell["error"] == "seed 1: data has non-finite entries"
        assert cell["seeds_used"] == 2
        assert (cell["value"], cell["alpha_median"]) == (want["value"], want["alpha_median"])


@pytest.mark.parametrize("penalty", ["a2", "a3"])
@pytest.mark.parametrize("method", ["graph", "galerkin"])
@pytest.mark.parametrize("ex_id, fid", [(2, 3), (1, 1), (1, 2), (1, 3)])
def test_restoration_on_analytic_data_is_the_sweep_on_the_closed_form_image(ex_id, fid, method, penalty):
    # a config file reaches data_mode "analytic"; its cell is the sweep on
    # the registered image at coefficient scale, with a fixed (a2) or a
    # data-built (a3) penalty
    n, seed = 40, 3
    config = ExperimentConfig(
        example=ex_id, test_function=fid, n=n, epsilon=0.02, method=method, penalty=penalty,
        data_mode="analytic",
    )
    grid, f = Grid(n, "interior"), get_test_function(fid)
    g = synthesize_data(get_example(ex_id), f, grid, "analytic") / sqrt(n)
    g_eps = add_noise(g, NoiseModel(config.epsilon, seed))
    if penalty == "a2":
        A = neumann_penalty(n)
    else:
        A = data_graph_laplacian(g_eps, SimilarityParams(ceil(config.r_fraction * n), config.sigma))
    problem = TikhonovProblem(TikhonovPencil(forward_matrix(ex_id, n, method), A), g_eps)
    want, _ = alpha_sweep(problem, config.alpha_grid, f.eval(grid.nodes) / sqrt(n))
    got, err = run_cell(config, seed)
    assert (got.alpha, err) == (want.alpha, want.rre)
    assert got.solution.tobytes() == want.solution.tobytes()


@pytest.mark.parametrize("ex_id, fid", [(2, 1), (1, 4)])
def test_restoration_on_analytic_data_without_an_image_is_refused(ex_id, fid):
    config = ExperimentConfig(example=ex_id, test_function=fid, n=20, epsilon=0.02, data_mode="analytic")
    with pytest.raises(ParameterError, match=f"^no closed-form image for f{fid} under example{ex_id}$"):
        run_cell(config, 0)


_SMALL_CELL = ExperimentConfig(example=1, test_function=3, n=20, epsilon=0.01)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: run_table(4.9), id="run_table(4.9)"),
        pytest.param(lambda: run_table(True), id="run_table(True)"),
        pytest.param(lambda: emit_figure_data(1.5), id="emit_figure_data(1.5)"),
        pytest.param(lambda: run_table(4, (0.5,)), id="run_table(4, (0.5,))"),
        pytest.param(lambda: run_table(4, (True,)), id="run_table(4, (True,))"),
        pytest.param(lambda: run_table(6, (-1, 0)), id="run_table(6, (-1, 0))"),
        pytest.param(lambda: run_table(4, 5), id="run_table(4, 5)"),
        pytest.param(lambda: run_cell(_SMALL_CELL, 2.7), id="run_cell(cfg, 2.7)"),
        pytest.param(lambda: run_cell(_SMALL_CELL, -3), id="run_cell(cfg, -3)"),
        pytest.param(lambda: NoiseModel(0.01, -1), id="NoiseModel(0.01, -1)"),
        pytest.param(lambda: get_example(1.7), id="get_example(1.7)"),
        pytest.param(lambda: get_example("2"), id='get_example("2")'),
        pytest.param(lambda: get_test_function(True), id="get_test_function(True)"),
        pytest.param(lambda: Grid(2.5), id="Grid(2.5)"),
        pytest.param(lambda: Grid(True), id="Grid(True)"),
        pytest.param(lambda: continuous_spectrum(2, 2.5), id="continuous_spectrum(2, 2.5)"),
        pytest.param(lambda: SimilarityParams(r=2.5, sigma=0.01), id="SimilarityParams(r=2.5)"),
        pytest.param(lambda: SimilarityParams(r=True, sigma=0.01), id="SimilarityParams(r=True)"),
        pytest.param(lambda: toeplitz_stencil(2.5), id="toeplitz_stencil(2.5)"),
        pytest.param(lambda: dirichlet_penalty(4.0), id="dirichlet_penalty(4.0)"),
        pytest.param(lambda: build_galerkin_operator(EXAMPLES[2], 2.5), id="build_galerkin_operator(p, 2.5)"),
        pytest.param(lambda: lsre(np.ones(3), np.ones(3), 1.5), id="lsre(d, c, 1.5)"),
    ],
)
def test_ids_and_seeds_must_be_integers(call):
    # one integer rule for every id, seed, size, count and index: a float, a
    # bool or a string is refused, not truncated; a seed is also >= 0, as
    # numpy's generator takes it, and a seed list is an iterable
    with pytest.raises(ParameterError):
        call()


def test_numpy_integer_ids_and_seeds_pass():
    assert report_to_json(run_table(np.int64(4), (np.int64(0),))) == report_to_json(run_table(4, (0,)))
    assert get_example(np.int64(2)) is EXAMPLES[2]
    assert get_test_function(np.int32(3)) is get_test_function(3)
    assert run_cell(_SMALL_CELL, np.int64(2))[1] == run_cell(_SMALL_CELL, 2)[1]


def test_run_table_validation():
    with pytest.raises(ParameterError):
        run_table(9)
    with pytest.raises(ParameterError):
        run_table(4, seeds=())


def test_run_table_rejects_a_repeated_seed(monkeypatch):
    # a repeated seed would count twice in every median; it is refused
    # before any cell runs
    def forbidden(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "run_cell", forbidden)
    for table, seeds in ((4, (0, 0, 1)), (6, (3, 1, 3))):
        with pytest.raises(ParameterError, match="must not repeat"):
            run_table(table, seeds)


@pytest.mark.parametrize(
    "table,keys,count",
    [
        (1, {"table", "method", "n", "f", "metric", "value"}, 6),
        (2, {"table", "method", "n", "m", "metric", "value"}, 18),
        (3, {"table", "method", "n", "metric", "value"}, 8),
    ],
    ids=["table1", "table2", "table3"],
)
def test_spectral_tables_equal_their_direct_metrics(table, keys, count):
    # tables 1-3 take no seeds; each cell is one metric of the second example
    cells = run_table(table).cells
    assert len(cells) == count
    for cell in cells:
        assert set(cell) == keys and cell["table"] == table
        n, method = cell["n"], cell["method"]
        if table == 1:
            assert (cell["f"], cell["metric"]) == (3, "max_abs_error")
            want = forward_image_error(2, n, 3, method)
        elif table == 2:
            assert cell["metric"] == "lsre"
            want = lsre(discrete_spectrum(2, n, method), continuous_spectrum(2, n), cell["m"])
        else:
            assert cell["metric"] == "msre"
            want = msre(discrete_spectrum(2, n, method), continuous_spectrum(2, n))
        assert cell["value"] == want
    coords = {tuple(cell[k] for k in ("n", "method", "m") if k in cell) for cell in cells}
    assert len(coords) == count


@pytest.mark.parametrize(
    "fig,base",
    [
        (2, ExperimentConfig(example=1, test_function=1, epsilon=0.01)),
        (3, ExperimentConfig(example=2, test_function=1, epsilon=0.02)),
    ],
    ids=["figure2", "figure3"],
)
def test_restoration_figures_are_run_cell_solutions(fig, base):
    names, data = emit_figure_data(fig)
    pairs = [(m, p) for m in ("graph", "galerkin") for p in ("identity", "a1", "a2", "a3")]
    assert names == ["x", "f_true"] + [f"{m}_{p}" for m, p in pairs]
    assert data.shape == (100, 10)
    x = Grid(100, "interior").nodes
    np.testing.assert_array_equal(data[:, 0], x)
    np.testing.assert_array_equal(data[:, 1], get_test_function(1).eval(x))
    for col, (method, pen) in enumerate(pairs, start=2):
        sol, _ = run_cell(replace(base, method=method, penalty=pen))
        np.testing.assert_array_equal(data[:, col], np.asarray(sol.solution) * np.sqrt(100))


def test_figure1_columns():
    names, data = emit_figure_data(1, ExperimentConfig(example=2, n=30))
    assert names == ["m_over_n", "continuous", "graph", "galerkin"]
    assert data.shape == (30, 4)
    # reciprocal scaled eigenvalues grow with the index
    assert np.all(np.diff(data[:, 1]) > 0.0)
    np.testing.assert_allclose(data[:, 0], np.arange(1, 31) / 30.0)
    with pytest.raises(ParameterError):
        emit_figure_data(4)


def test_readme_quick_start_runs(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    median = float(capsys.readouterr().out)
    assert 0.0 < median < 1.0
