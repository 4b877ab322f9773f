"""Experiment orchestration: benchmark cells, tables and figure datasets.

Conventions shared by every experiment, chosen so the numbers line up with
the reference results this package reproduces:

- All experiment vectors (synthesized data, noisy data, target signal,
  restored signal) are sampled on the interior lattice x_i = i/(n+1) and
  carried at box-coefficient scale, i.e. divided by sqrt(n).  Restoration
  errors are scale invariant; the similarity penalty is not, and it expects
  coefficient scale.
- Tikhonov solves use the raw Galerkin matrix; spectral and forward-image
  diagnostics use the lattice-weighted variant (n/(n+1)) * G compared on
  the same interior lattice.
- The parameter sweep squares the grid value before it multiplies the
  penalty norm (a 50-point log grid from 1e3 down to 1e-6).
- Noisy cells aggregate as the median over the seed list.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import ceil, sqrt

import numpy as np
import scipy.linalg as sla

from .discretization import (
    DiscreteOperator,
    Grid,
    build_galerkin_operator,
    build_schrodinger_operator,
    continuous_eigenvalues,
    pseudo_inverse,
)
from .errors import GraphtikError, ParameterError
from .metrics import lsre, max_abs_error, msre, rre
from .penalty import (
    SimilarityParams,
    data_graph_laplacian,
    dirichlet_penalty,
    kernel_matched_penalty,
    neumann_penalty,
)
from .problems import NoiseModel, add_noise, get_example, get_test_function, synthesize_data
from .regularization import AlphaGrid, TikhonovProblem, alpha_sweep
from .reporting import ExperimentReport, config_hash

__all__ = [
    "ExperimentConfig",
    "PENALTY_NAMES",
    "forward_matrix",
    "diagnostic_matrix",
    "discrete_spectrum",
    "forward_image_error",
    "run_cell",
    "run_table",
    "emit_figure_data",
]

PENALTY_NAMES = ("identity", "a1", "a2", "a3", "matched")
_METHODS = ("graph", "galerkin")


@dataclass(frozen=True)
class ExperimentConfig:
    """One deblurring cell, or the template for a sweep of them."""

    example: int = 2
    test_function: int = 3
    n: int = 100
    epsilon: float = 0.0
    seeds: tuple = (0,)
    method: str = "graph"
    penalty: str = "identity"
    alpha_grid: AlphaGrid = field(default_factory=AlphaGrid)
    r_fraction: float = 0.2
    sigma: float = 0.01
    data_mode: str = "quadrature"

    def validate(self) -> "ExperimentConfig":
        if self.example not in (1, 2):
            raise ParameterError(f"example must be 1 or 2, got {self.example!r}")
        if self.test_function not in (1, 2, 3, 4):
            raise ParameterError(f"test function must be 1..4, got {self.test_function!r}")
        if self.n < 2:
            raise ParameterError("n must be >= 2")
        if self.epsilon < 0.0:
            raise ParameterError("epsilon must be >= 0")
        if len(self.seeds) == 0:
            raise ParameterError("need at least one seed")
        if self.method not in _METHODS:
            raise ParameterError(f"method must be one of {_METHODS}")
        if self.penalty not in PENALTY_NAMES:
            raise ParameterError(f"penalty must be one of {PENALTY_NAMES}")
        if not (0.0 < self.r_fraction <= 1.0):
            raise ParameterError("r_fraction must be in (0, 1]")
        if self.sigma <= 0.0:
            raise ParameterError("sigma must be positive")
        if self.data_mode not in ("quadrature", "analytic"):
            raise ParameterError(f"unknown data mode {self.data_mode!r}")
        return self

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "test_function": self.test_function,
            "n": self.n,
            "epsilon": self.epsilon,
            "seeds": list(self.seeds),
            "method": self.method,
            "penalty": self.penalty,
            "alpha_grid": {
                "max": self.alpha_grid.max,
                "min": self.alpha_grid.min,
                "count": self.alpha_grid.count,
            },
            "r_fraction": self.r_fraction,
            "sigma": self.sigma,
            "data_mode": self.data_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        unknown = set(d) - {
            "example",
            "test_function",
            "n",
            "epsilon",
            "seeds",
            "method",
            "penalty",
            "alpha_grid",
            "r_fraction",
            "sigma",
            "data_mode",
        }
        if unknown:
            raise ParameterError(f"unknown config fields {sorted(unknown)}")
        if "alpha_grid" in d:
            ag = d["alpha_grid"]
            d["alpha_grid"] = AlphaGrid(
                max=float(ag.get("max", 1e3)),
                min=float(ag.get("min", 1e-6)),
                count=int(ag.get("count", 50)),
            )
        if "seeds" in d:
            d["seeds"] = tuple(int(s) for s in d["seeds"])
        return cls(**d).validate()


# ---------------------------------------------------------------- operators


@lru_cache(maxsize=None)
def _schrodinger_matrix(example_id: int, n: int) -> np.ndarray:
    ex = get_example(example_id)
    return build_schrodinger_operator(ex.problem.potential, n).matrix


@lru_cache(maxsize=None)
def _graph_forward_matrix(example_id: int, n: int) -> np.ndarray:
    ex = get_example(example_id)
    L = build_schrodinger_operator(ex.problem.potential, n)
    # orient the inverse like the example's printed kernel
    return ex.green_sign * pseudo_inverse(L).matrix


@lru_cache(maxsize=None)
def _galerkin_matrix(example_id: int, n: int) -> np.ndarray:
    ex = get_example(example_id)
    return build_galerkin_operator(ex.problem, n).matrix


def forward_matrix(example_id: int, n: int, method: str) -> DiscreteOperator:
    """Forward operator used in solves, on the shared interior lattice."""
    if method == "graph":
        m = _graph_forward_matrix(example_id, n)
    elif method == "galerkin":
        m = _galerkin_matrix(example_id, n)
    else:
        raise ParameterError(f"method must be one of {_METHODS}")
    return DiscreteOperator(m, Grid(n, "interior"), method)


def diagnostic_matrix(example_id: int, n: int, method: str) -> DiscreteOperator:
    """Forward operator used in spectral and image-error diagnostics.

    The Galerkin matrix gets the lattice weight n/(n+1) so that its action
    on interior-lattice samples approximates the continuous operator; the
    graph operator is used as is.
    """
    if method == "galerkin":
        m = _galerkin_matrix(example_id, n) * (n / (n + 1.0))
        return DiscreteOperator(m, Grid(n, "interior"), method)
    return forward_matrix(example_id, n, method)


@lru_cache(maxsize=None)
def _clean_data(example_id: int, fid: int, n: int, mode: str) -> tuple:
    ex = get_example(example_id)
    f = get_test_function(fid)
    g = synthesize_data(ex, f, Grid(n, "interior"), mode)
    return tuple(g)


def discrete_spectrum(example_id: int, n: int, method: str) -> np.ndarray:
    """Eigenvalue magnitudes of the diagnostic operator, descending."""
    if method == "graph":
        delta = np.linalg.eigvalsh(_schrodinger_matrix(example_id, n))
        lam = np.abs(1.0 / delta)
    else:
        lam = np.abs(np.linalg.eigvalsh(diagnostic_matrix(example_id, n, method).matrix))
    return np.sort(lam)[::-1]


def continuous_spectrum(example_id: int, n: int) -> np.ndarray:
    return continuous_eigenvalues(get_example(example_id).problem, n)


def forward_image_error(example_id: int, n: int, fid: int, method: str) -> float:
    """Sup-norm gap between the discrete image of f and the true image."""
    ex = get_example(example_id)
    f = get_test_function(fid)
    x = Grid(n, "interior").nodes
    fx = f.eval(x)
    if method == "graph":
        L = _schrodinger_matrix(example_id, n)
        image = ex.green_sign * sla.solve(L, fx, assume_a="sym")
    else:
        image = diagnostic_matrix(example_id, n, method).matrix @ fx
    try:
        u = synthesize_data(ex, f, Grid(n, "interior"), "analytic")
    except GraphtikError:
        u = np.array(_clean_data(example_id, fid, n, "quadrature"))
    return max_abs_error(image, u)


# ------------------------------------------------------------------- cells


def _penalty_operator(config: ExperimentConfig, g_eps: np.ndarray, reference: np.ndarray):
    n = config.n
    if config.penalty == "identity":
        return DiscreteOperator(np.eye(n), Grid(n, "interior"), "penalty")
    if config.penalty == "a1":
        return dirichlet_penalty(n)
    if config.penalty == "a2":
        return neumann_penalty(n)
    params = SimilarityParams(r=ceil(config.r_fraction * n), sigma=config.sigma)
    delta = data_graph_laplacian(g_eps, params)
    if config.penalty == "a3":
        return delta
    return kernel_matched_penalty(delta, reference)


def run_cell(config: ExperimentConfig, seed: int | None = None):
    """Solve one deblurring cell; returns (best RegularizedSolution, rre).

    Data and reference are interior-lattice samples at coefficient scale;
    the returned solution vector is at that scale too (multiply by sqrt(n)
    for point values).
    """
    config.validate()
    if seed is None:
        seed = config.seeds[0]
    n = config.n
    grid = Grid(n, "interior")
    root = sqrt(n)
    g_clean = np.array(_clean_data(config.example, config.test_function, n, config.data_mode))
    g_clean = g_clean / root
    reference = get_test_function(config.test_function).eval(grid.nodes) / root
    g_eps = add_noise(g_clean, NoiseModel(config.epsilon, int(seed)))
    K = forward_matrix(config.example, n, config.method)
    A = _penalty_operator(config, g_eps, reference)
    problem = TikhonovProblem(K, A, g_eps)
    best, _curve = alpha_sweep(problem, config.alpha_grid, reference)
    return best, best.rre


# ------------------------------------------------------------------ tables

_TABLE_SIZES = {1: (100, 1000, 2000), 2: (100, 1000, 2000), 3: (100, 500, 1000, 2000)}
_LSRE_MODES = (1, 10, 50)


def _spectral_cells(table_id: int):
    cells = []
    for n in _TABLE_SIZES[table_id]:
        lam_true = continuous_spectrum(2, n)
        for method in _METHODS:
            lam_hat = discrete_spectrum(2, n, method)
            if table_id == 2:
                for m in _LSRE_MODES:
                    cells.append(
                        {
                            "table": 2,
                            "method": method,
                            "n": n,
                            "m": m,
                            "metric": "lsre",
                            "value": lsre(lam_hat, lam_true, m),
                        }
                    )
            else:
                cells.append(
                    {
                        "table": 3,
                        "method": method,
                        "n": n,
                        "metric": "msre",
                        "value": msre(lam_hat, lam_true),
                    }
                )
    return cells


def _forward_cells():
    return [
        {
            "table": 1,
            "method": method,
            "n": n,
            "f": 3,
            "metric": "max_abs_error",
            "value": forward_image_error(2, n, 3, method),
        }
        for n in _TABLE_SIZES[1]
        for method in _METHODS
    ]


def _deblur_template(table_id: int) -> ExperimentConfig:
    if table_id == 4:
        return ExperimentConfig(example=1, test_function=1, epsilon=0.0, penalty="identity")
    if table_id == 5:
        return ExperimentConfig(example=1, test_function=3, epsilon=0.1, penalty="matched")
    if table_id == 6:
        return ExperimentConfig(example=1, epsilon=0.01)
    return ExperimentConfig(example=2, epsilon=0.02)


def _deblur_cells(table_id: int, seeds: tuple):
    template = _deblur_template(table_id)
    cells = []
    sample = None
    if table_id in (4, 5):
        fids = (template.test_function,)
        penalties = (template.penalty,)
    else:
        fids = (1, 2, 3, 4)
        penalties = ("identity", "a1", "a2", "a3")
    use_seeds = (0,) if table_id == 4 else seeds  # noise-free table ignores seeds
    for fid in fids:
        for method in _METHODS:
            for pen in penalties:
                config = replace(
                    template,
                    test_function=fid,
                    method=method,
                    penalty=pen,
                    seeds=tuple(use_seeds),
                )
                errs, alphas = [], []
                failures = []
                for s in use_seeds:
                    try:
                        sol, err = run_cell(config, s)
                    except GraphtikError as exc:
                        failures.append(f"seed {s}: {exc}")
                        continue
                    errs.append(err)
                    alphas.append(sol.alpha)
                    if sample is None:
                        sample = {
                            "config": config.to_dict(),
                            "seed": int(s),
                            "solution": [float(v) for v in sol.solution],
                            "alpha": sol.alpha,
                            "value": err,
                        }
                cell = {
                    "table": table_id,
                    "f": fid,
                    "method": method,
                    "penalty": pen,
                    "metric": "rre_median",
                    "value": float(np.median(errs)) if errs else float("nan"),
                    "alpha_median": float(np.median(alphas)) if alphas else float("nan"),
                    "seeds_used": len(errs),
                }
                if failures:
                    cell["error"] = "; ".join(failures)
                cells.append(cell)
    return cells, sample


def _roundtrip_check(sample: dict | None) -> dict | None:
    """Recompute the sampled cell's metric from its stored solution vector."""
    if sample is None:
        return None
    config = ExperimentConfig.from_dict(sample["config"])
    n = config.n
    reference = get_test_function(config.test_function).eval(Grid(n, "interior").nodes)
    reference = reference / sqrt(n)
    recomputed = rre(np.array(sample["solution"]), reference)
    return {
        "cell": {k: sample["config"][k] for k in ("example", "test_function", "method", "penalty")},
        "seed": sample["seed"],
        "value_reported": sample["value"],
        "value_recomputed": recomputed,
        "ok": bool(abs(recomputed - sample["value"]) <= 1e-12 * max(1.0, abs(sample["value"]))),
    }


def run_table(table_id: int, seeds=tuple(range(20))) -> ExperimentReport:
    """Reproduce one benchmark table; noisy cells are seed medians."""
    table_id = int(table_id)
    if table_id not in range(1, 8):
        raise ParameterError("table id must be 1..7")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ParameterError("need at least one seed")
    sample = None
    if table_id == 1:
        cells = _forward_cells()
    elif table_id in (2, 3):
        cells = _spectral_cells(table_id)
    else:
        cells, sample = _deblur_cells(table_id, seeds)
    meta = {"table": table_id, "seeds": list(seeds)}
    return ExperimentReport(
        config=meta,
        cells=cells,
        seeds=list(seeds),
        config_hash=config_hash(meta),
        roundtrip=_roundtrip_check(sample),
    )


# ----------------------------------------------------------------- figures


def emit_figure_data(fig_id: int, config: ExperimentConfig | None = None):
    """Columnar data behind the three benchmark figures.

    Figure 1: (m/n, 1/(n^2 lambda)) for the continuous spectrum and both
    discretizations; the plotted quantity is nondecreasing in m.
    Figures 2 and 3: node positions, the target signal, and the restored
    signal (point scale) for every (method, penalty) pair, one noisy draw.
    """
    fig_id = int(fig_id)
    if fig_id == 1:
        config = config or ExperimentConfig(example=2)
        config.validate()
        n = config.n
        scale = 1.0 / n**2
        m = np.arange(1, n + 1, dtype=float)
        cols = [m / n]
        names = ["m_over_n"]
        lam_true = continuous_spectrum(config.example, n)
        cols.append(scale / lam_true)
        names.append("continuous")
        for method in _METHODS:
            cols.append(scale / discrete_spectrum(config.example, n, method))
            names.append(method)
        return names, np.column_stack(cols)
    if fig_id == 2:
        base = config or ExperimentConfig(example=1, test_function=1, epsilon=0.01)
    elif fig_id == 3:
        base = config or ExperimentConfig(example=2, test_function=1, epsilon=0.02)
    else:
        raise ParameterError("figure id must be 1, 2 or 3")
    base.validate()
    n = base.n
    x = Grid(n, "interior").nodes
    names = ["x", "f_true"]
    cols = [x, get_test_function(base.test_function).eval(x)]
    for method in _METHODS:
        for pen in ("identity", "a1", "a2", "a3"):
            sol, _ = run_cell(replace(base, method=method, penalty=pen))
            cols.append(np.asarray(sol.solution) * sqrt(n))  # back to point scale
            names.append(f"{method}_{pen}")
    return names, np.column_stack(cols)
