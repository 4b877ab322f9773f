"""Cell runner, table reproduction and figure data."""
import numpy as np
import pytest

from graphtik import experiments
from graphtik.errors import IllPosedProblemError, ParameterError
from graphtik.experiments import (
    ExperimentConfig,
    diagnostic_matrix,
    discrete_spectrum,
    emit_figure_data,
    forward_image_error,
    forward_matrix,
    run_cell,
    run_table,
)
from graphtik.regularization import AlphaGrid


def test_config_roundtrip():
    cfg = ExperimentConfig(example=1, test_function=2, n=64, epsilon=0.05, seeds=(1, 2))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_partial_alpha_grid():
    cfg = ExperimentConfig.from_dict({"alpha_grid": {"count": 7}})
    assert cfg.alpha_grid == AlphaGrid(max=1e3, min=1e-6, count=7)


def test_config_rejects_unknown_fields():
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"example": 1, "kernel": "gauss"})


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
    ],
)
def test_config_validation(field, value):
    with pytest.raises(ParameterError):
        ExperimentConfig(**{field: value}).validate()


def test_forward_matrices_share_grid():
    Kg = forward_matrix(2, 12, "graph")
    Kb = forward_matrix(2, 12, "galerkin")
    assert Kg.grid == Kb.grid
    assert Kg.grid.convention == "interior"
    with pytest.raises(ParameterError):
        forward_matrix(2, 12, "spectral")


def test_diagnostic_matrix_scaling():
    n = 12
    raw = forward_matrix(2, n, "galerkin").matrix
    diag = diagnostic_matrix(2, n, "galerkin").matrix
    np.testing.assert_allclose(diag, raw * (n / (n + 1.0)), rtol=1e-15)
    np.testing.assert_array_equal(
        diagnostic_matrix(2, n, "graph").matrix, forward_matrix(2, n, "graph").matrix
    )


def test_discrete_spectrum_sorted_positive():
    for method in ("graph", "galerkin"):
        lam = discrete_spectrum(2, 20, method)
        assert lam.shape == (20,)
        assert np.all(lam > 0.0)
        assert np.all(np.diff(lam) <= 0.0)


def test_forward_image_error_small():
    # n = 50 lattice image of f(x) = x under the second example
    assert forward_image_error(2, 50, 3, "graph") < 5e-3
    assert forward_image_error(2, 50, 3, "galerkin") < 5e-2


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
    assert len(report.config_hash) == 12


def test_run_table_keeps_every_failing_seed(monkeypatch):
    real = experiments.run_cell

    def flaky(config, seed=None):
        if seed in (1, 3):
            raise IllPosedProblemError(f"injected failure {seed}")
        return real(config, seed)

    monkeypatch.setattr(experiments, "run_cell", flaky)
    report = run_table(5, seeds=(0, 1, 2, 3))
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell["seeds_used"] == 2
        assert cell["error"] == "seed 1: injected failure 1; seed 3: injected failure 3"
        assert np.isfinite(cell["value"])


def test_run_table_validation():
    with pytest.raises(ParameterError):
        run_table(9)
    with pytest.raises(ParameterError):
        run_table(4, seeds=())


def test_figure1_columns():
    names, data = emit_figure_data(1, ExperimentConfig(example=2, n=30))
    assert names == ["m_over_n", "continuous", "graph", "galerkin"]
    assert data.shape == (30, 4)
    # reciprocal scaled eigenvalues grow with the index
    assert np.all(np.diff(data[:, 1]) > 0.0)
    np.testing.assert_allclose(data[:, 0], np.arange(1, 31) / 30.0)
    with pytest.raises(ParameterError):
        emit_figure_data(4)
