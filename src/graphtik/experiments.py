"""Experiment orchestration: benchmark cells, tables and figure datasets.

``TABLES`` and ``FIGURES`` describe each of the paper's tables and figures
once, as a template ``ExperimentConfig`` and the axes swept over it;
``run_table`` and ``emit_figure_data`` read them, and a noise-free template
(epsilon 0) runs one seed.

Conventions shared by every experiment, chosen so the numbers line up with
the reference results this package reproduces:

- All experiment vectors (synthesized data, noisy data, target signal,
  restored signal) are sampled on the interior lattice x_i = i/(n+1) and
  carried at box-coefficient scale, i.e. divided by sqrt(n).  Restoration
  errors are scale invariant; the similarity penalty is not, and it expects
  coefficient scale.
- Tikhonov solves use the raw Galerkin matrix; spectral and forward-image
  diagnostics use the lattice-weighted variant (n/(n+1)) * G compared on
  the same interior lattice.  ``diagnostic_matrix`` is that definition;
  the diagnostics apply the weight to their results (the eigenvalues, the
  image vector) rather than to a weighted n x n copy of G.
- The parameter sweep squares the grid value before it multiplies the
  penalty norm (a 50-point log grid from 1e3 down to 1e-6).
- Noisy cells aggregate as the median over the seed list.  A table
  decomposes the (K, A) pencil of each fixed penalty (identity, a1, a2) and
  method once and reuses it for every seed of every test function; a3 and
  matched build theirs from each seed's noisy data.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from math import ceil, sqrt

import numpy as np

from .discretization import (
    DiscreteOperator,
    Grid,
    _even_odd_blocks,
    _even_odd_solve,
    build_galerkin_operator,
    build_schrodinger_blocks,
    build_schrodinger_operator,
    continuous_eigenvalues,
    pseudo_inverse,
)
from .errors import GraphtikError, ParameterError, UnsupportedProblemError, _finite_real, _is_int, _lookup
from .metrics import lsre, max_abs_error, msre, rre
from .penalty import (
    SimilarityParams,
    data_graph_laplacian,
    dirichlet_penalty,
    kernel_matched_penalty,
    neumann_penalty,
)
from .problems import (
    _DATA_MODES,
    EXAMPLES,
    TEST_FUNCTIONS,
    NoiseModel,
    add_noise,
    get_example,
    get_test_function,
    synthesize_data,
)
from .regularization import AlphaGrid, TikhonovPencil, TikhonovProblem, alpha_sweep
from .reporting import ExperimentReport

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "PENALTY_NAMES",
    "TABLES",
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
_DEFAULT_SEEDS = tuple(range(20))  # of a table, from the API or the CLI


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

    def __post_init__(self):
        """Check every field's type, then its range, so that every config,
        including one made by ``dataclasses.replace``, is valid.

        A scalar must have its default's type, by the rules of ``errors``:
        an int field takes an integer, a float field a real number that is
        finite as a float (an integer too, a bool never).  The seeds must be
        integers >= 0, as numpy's generator takes them.  Each checked scalar
        is stored as its default's type and the seeds as a tuple of ints, so
        equal configs hash alike however they are made."""
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind is float:
                value = _finite_real(f"config field {f.name!r}", value)
            elif kind in (int, str):
                if not (_is_int(value) if kind is int else isinstance(value, str)):
                    raise ParameterError(f"config field {f.name!r} must be {kind.__name__}, got {value!r}")
                value = kind(value)
            else:
                continue  # seeds and alpha_grid below; AlphaGrid checks its own fields
            object.__setattr__(self, f.name, value)
        if not isinstance(self.seeds, (list, tuple)) or not all(_is_int(s) and s >= 0 for s in self.seeds):
            raise ParameterError(f"config field 'seeds' must be a list of integers >= 0, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not isinstance(self.alpha_grid, AlphaGrid):
            raise ParameterError(f"config field 'alpha_grid' must be an AlphaGrid, got {self.alpha_grid!r}")
        _lookup(EXAMPLES, "example", self.example)
        _lookup(TEST_FUNCTIONS, "test function", self.test_function)
        if self.n < 2:
            raise ParameterError("n must be >= 2")
        if self.epsilon < 0.0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if len(self.seeds) == 0:
            raise ParameterError("need at least one seed")
        if self.method not in _METHODS:
            raise ParameterError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.penalty not in PENALTY_NAMES:
            raise ParameterError(f"penalty must be one of {PENALTY_NAMES}, got {self.penalty!r}")
        if not (0.0 < self.r_fraction <= 1.0):
            raise ParameterError("r_fraction must be in (0, 1]")
        if self.sigma <= 0.0:
            raise ParameterError(f"sigma must be positive, got {self.sigma!r}")
        if self.data_mode not in _DATA_MODES:
            raise ParameterError(f"unknown data mode {self.data_mode!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, d: dict, base: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        """Inverse of to_dict; missing fields take base's values (the
        defaults without one), and missing alpha_grid entries their
        defaults.  The constructors of the config and of AlphaGrid check
        the types and store each value as its field's type, so a mistyped
        value is a ParameterError and ``{"max": 100}`` and
        ``{"max": 100.0}`` give the same config."""
        if not isinstance(d, dict):
            raise ParameterError("a config must be a JSON object")
        d = dict(d) if base is None else {**base.to_dict(), **d}
        _reject_unknown("config", d, fields(cls))
        if "alpha_grid" in d:
            ag = d["alpha_grid"]
            if not isinstance(ag, dict):
                raise ParameterError(f"config field 'alpha_grid' must be an object, got {ag!r}")
            _reject_unknown("alpha_grid", ag, fields(AlphaGrid))
            d["alpha_grid"] = AlphaGrid(**ag)
        return cls(**d)


def _reject_unknown(where: str, d: dict, known) -> None:
    unknown = set(d) - {f.name for f in known}
    if unknown:
        raise ParameterError(f"unknown {where} fields {sorted(unknown)}")


# ---------------------------------------------------------------- operators


@lru_cache(maxsize=None)
def _forward_matrix(example_id: int, n: int, method: str) -> np.ndarray:
    """The one cache of forward matrices, one per (example, n, method)."""
    ex = get_example(example_id)
    if method == "galerkin":
        return build_galerkin_operator(ex.problem, n).matrix
    # L itself is not kept: the diagnostics read its blocks from the stencil
    L = build_schrodinger_operator(ex.problem.potential, n)
    # orient the inverse like the example's printed kernel
    return ex.green_sign * pseudo_inverse(L).matrix


def forward_matrix(example_id: int, n: int, method: str) -> DiscreteOperator:
    """Forward operator used in solves, on the shared interior lattice."""
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}")
    return DiscreteOperator(_forward_matrix(example_id, n, method), Grid(n, "interior"), method)


def diagnostic_matrix(example_id: int, n: int, method: str) -> DiscreteOperator:
    """Forward operator used in spectral and image-error diagnostics.

    The Galerkin matrix gets the lattice weight n/(n+1) so that its action
    on interior-lattice samples approximates the continuous operator; the
    graph operator is used as is.
    """
    op = forward_matrix(example_id, n, method)
    return replace(op, matrix=op.matrix * _lattice_weight(n)) if method == "galerkin" else op


def _lattice_weight(n: int) -> float:
    """n/(n+1), the weight of the Galerkin matrix on interior-lattice samples."""
    return n / (n + 1.0)


def _target(fid: int, n: int) -> np.ndarray:
    """The test function on the interior lattice, at coefficient scale."""
    return get_test_function(fid).eval(Grid(n, "interior").nodes) / sqrt(n)


@lru_cache(maxsize=None)
def _clean_data(example_id: int, fid: int, n: int, mode: str) -> np.ndarray:
    """The synthesized data, read-only: every caller shares the one array."""
    g = synthesize_data(get_example(example_id), get_test_function(fid), Grid(n, "interior"), mode)
    g.flags.writeable = False
    return g


def discrete_spectrum(example_id: int, n: int, method: str) -> np.ndarray:
    """Eigenvalue magnitudes of the diagnostic operator, descending.

    Both operators are centrosymmetric (JAJ = A, with J the flip of the
    lattice): the potential q is even about x = 1/2 (constant in both
    examples), so the lattice matrix L is symmetric Toeplitz plus an even
    diagonal; the kernel factors satisfy v(t) = c u(1 - t), c constant, so
    h(1 - x, 1 - y) = h(x, y) and, the grid being symmetric about 1/2, the
    Galerkin matrix is too.  The spectrum is therefore the union of the
    spectra of the half-size even and odd blocks, which is how it is computed:
    ``build_schrodinger_blocks`` writes L's from the stencil, checking on L's
    diagonal that q is even, so no n x n L is formed here, and
    ``_even_odd_blocks`` splits G.  The Galerkin eigenvalues are weighted as
    ``diagnostic_matrix`` weights the matrix.
    """
    if method == "graph":
        blocks = build_schrodinger_blocks(get_example(example_id).problem.potential, n)
    else:
        blocks = _even_odd_blocks(forward_matrix(example_id, n, method).matrix)
    lam = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
    if method == "graph":
        lam = np.abs(1.0 / lam)  # K = +-L^-1
    else:
        np.abs(lam, out=lam)
        lam *= _lattice_weight(n)
    return np.sort(lam)[::-1]


def continuous_spectrum(example_id: int, n: int) -> np.ndarray:
    return continuous_eigenvalues(get_example(example_id).problem, n)


def forward_image_error(example_id: int, n: int, fid: int, method: str) -> float:
    """Sup-norm gap between the discrete image of f and the true image.

    The graph image solves L u = f by ``_even_odd_solve`` on the blocks of
    ``build_schrodinger_blocks`` (see discrete_spectrum), without forming L.
    The Galerkin image is weighted as ``diagnostic_matrix`` weights the
    matrix.
    """
    ex = get_example(example_id)
    f = get_test_function(fid)
    x = Grid(n, "interior").nodes
    fx = f.eval(x)
    if method == "graph":
        image = ex.green_sign * _even_odd_solve(*build_schrodinger_blocks(ex.problem.potential, n), fx)
    else:
        image = forward_matrix(example_id, n, method).matrix @ fx
        image *= _lattice_weight(n)
    try:
        u = synthesize_data(ex, f, Grid(n, "interior"), "analytic")
    except UnsupportedProblemError:  # no closed form: the quadrature data
        u = _clean_data(example_id, fid, n, "quadrature")
    return max_abs_error(image, u)


# ------------------------------------------------------------------- cells


# penalties built from the noisy data: their pencil changes with the seed
_DATA_PENALTIES = ("a3", "matched")


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


def run_cell(config: ExperimentConfig, seed: int | None = None, pencils: dict | None = None):
    """Solve one deblurring cell at one seed (default: the config's first);
    returns (best RegularizedSolution, rre).

    Data and reference are interior-lattice samples at coefficient scale;
    the returned solution vector is at that scale too (multiply by sqrt(n)
    for point values).  A fixed penalty's pencil (identity, a1, a2) is taken
    from ``pencils``, keyed (example, n, method, penalty), and built on
    first use, or built for this call only without a dict; a build that
    raises stores nothing, so every seed that needs it raises again.  A
    table shares one dict across its cells and seeds, for the values of
    separate calls bit for bit; caching pencils for the process instead
    would hold about 24 MB per (K, A) pair at n = 1000.  a3 and matched
    pencils are built from this seed's noisy data.
    """
    if seed is None:
        seed = config.seeds[0]
    n = config.n
    g_clean = _clean_data(config.example, config.test_function, n, config.data_mode) / sqrt(n)
    reference = _target(config.test_function, n)
    g_eps = add_noise(g_clean, NoiseModel(config.epsilon, seed))
    K = forward_matrix(config.example, n, config.method)
    if config.penalty in _DATA_PENALTIES:
        pencil = TikhonovPencil(K, _penalty_operator(config, g_eps, reference))
    else:
        pencils = {} if pencils is None else pencils
        key = (config.example, n, config.method, config.penalty)
        if key not in pencils:
            pencils[key] = TikhonovPencil(K, _penalty_operator(config, None, None))
        pencil = pencils[key]
    problem = TikhonovProblem(pencil, g_eps)
    best, _curve = alpha_sweep(problem, config.alpha_grid, reference)
    return best, best.rre


# --------------------------------------------------------------- catalogue


@dataclass(frozen=True)
class Spec:
    """One table or figure of the paper: a template cell and the axes swept
    over it.  Every table and figure sweeps both methods."""

    template: ExperimentConfig
    metric: str
    sizes: tuple = ()  # n, for the diagnostic tables
    modes: tuple = ()  # m, for per-mode spectral errors
    test_functions: tuple = ()
    penalties: tuple = ()


_NOISY_PENALTIES = ("identity", "a1", "a2", "a3")
_EX1_NOISY = ExperimentConfig(example=1, epsilon=0.01)
_EX2_NOISY = ExperimentConfig(example=2, epsilon=0.02)

TABLES = {
    1: Spec(ExperimentConfig(example=2, test_function=3), "max_abs_error", sizes=(100, 1000, 2000)),
    2: Spec(ExperimentConfig(example=2), "lsre", sizes=(100, 1000, 2000), modes=(1, 10, 50)),
    3: Spec(ExperimentConfig(example=2), "msre", sizes=(100, 500, 1000, 2000)),
    4: Spec(
        ExperimentConfig(example=1, test_function=1, epsilon=0.0, penalty="identity"),
        "rre_median", test_functions=(1,), penalties=("identity",),
    ),
    5: Spec(
        ExperimentConfig(example=1, test_function=3, epsilon=0.1, penalty="matched"),
        "rre_median", test_functions=(3,), penalties=("matched",),
    ),
    6: Spec(_EX1_NOISY, "rre_median", test_functions=(1, 2, 3, 4), penalties=_NOISY_PENALTIES),
    7: Spec(_EX2_NOISY, "rre_median", test_functions=(1, 2, 3, 4), penalties=_NOISY_PENALTIES),
}

FIGURES = {
    1: Spec(ExperimentConfig(example=2), "reciprocal_spectrum"),
    2: Spec(replace(_EX1_NOISY, test_function=1), "restoration", penalties=_NOISY_PENALTIES),
    3: Spec(replace(_EX2_NOISY, test_function=1), "restoration", penalties=_NOISY_PENALTIES),
}


# ------------------------------------------------------------------ tables


def _diagnostic_cells(table_id: int, table: Spec) -> list:
    """One metric of the template's example per (n, method): the forward
    image error of its test function, or a spectral error."""
    ex, fid, metric = table.template.example, table.template.test_function, table.metric
    cells = []
    for n in table.sizes:
        for method in _METHODS:
            cell = {"table": table_id, "method": method, "n": n, "metric": metric}
            if metric == "max_abs_error":
                cells.append({**cell, "f": fid, "value": forward_image_error(ex, n, fid, method)})
                continue
            lam_hat, lam_true = discrete_spectrum(ex, n, method), continuous_spectrum(ex, n)
            if metric == "lsre":
                cells += [{**cell, "m": m, "value": lsre(lam_hat, lam_true, m)} for m in table.modes]
            else:
                cells.append({**cell, "value": msre(lam_hat, lam_true)})
    return cells


def _restoration_cells(table_id: int, table: Spec, seeds: tuple):
    """Seed medians of every (test function, method, penalty) cell."""
    # a noise-free cell is the same at every seed, so it runs the first only
    if table.template.epsilon == 0.0:
        seeds = seeds[:1]
    cells = []
    sample = None
    pencils = {}
    for fid in table.test_functions:
        for method in _METHODS:
            for pen in table.penalties:
                config = replace(table.template, test_function=fid, method=method, penalty=pen, seeds=seeds)
                errs, alphas = [], []
                failures = []
                for s in seeds:
                    try:
                        sol, err = run_cell(config, s, pencils)
                    except GraphtikError as exc:
                        failures.append(f"seed {s}: {exc}")
                        continue
                    errs.append(err)
                    alphas.append(sol.alpha)
                    if sample is None:
                        sample = {
                            "config": config.to_dict(),
                            "seed": s,
                            "solution": [float(v) for v in sol.solution],
                            "value": err,
                        }
                cell = {
                    "table": table_id,
                    "f": fid,
                    "method": method,
                    "penalty": pen,
                    "metric": table.metric,
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
    recomputed = rre(np.array(sample["solution"]), _target(config.test_function, config.n))
    return {
        "cell": {k: sample["config"][k] for k in ("example", "test_function", "method", "penalty")},
        "seed": sample["seed"],
        "value_reported": sample["value"],
        "value_recomputed": recomputed,
        "ok": bool(abs(recomputed - sample["value"]) <= 1e-12 * max(1.0, abs(sample["value"]))),
    }


def run_table(table_id: int, seeds=_DEFAULT_SEEDS) -> ExperimentReport:
    """Reproduce one table of ``TABLES``; noisy cells are seed medians.
    The seeds, any iterable of them, pass the config's own check, and none
    may repeat.  The report's config is the table's whole entry, its
    template holding these seeds, so its hash changes with any of them."""
    table_id, table = _lookup(TABLES, "table", table_id)
    template = replace(table.template, seeds=tuple(seeds) if np.iterable(seeds) else seeds)
    seeds = template.seeds
    if len(set(seeds)) != len(seeds):
        raise ParameterError(f"seeds must not repeat, got {list(seeds)}")
    sample = None
    if table.metric == "rre_median":
        cells, sample = _restoration_cells(table_id, table, seeds)
    else:
        cells = _diagnostic_cells(table_id, table)
    axes = {axis: list(getattr(table, axis)) for axis in ("sizes", "modes", "test_functions", "penalties")}
    config = {"table": table_id, "template": template.to_dict(), "metric": table.metric, **axes}
    return ExperimentReport(config=config, cells=cells, roundtrip=_roundtrip_check(sample))


# ----------------------------------------------------------------- figures


def emit_figure_data(fig_id: int, config: ExperimentConfig | None = None):
    """Columnar data behind one figure of ``FIGURES``, for its template or,
    given one, for ``config`` in its place.

    Figure 1: (m/n, 1/(n^2 lambda)) for the continuous spectrum and both
    discretizations; the plotted quantity is nondecreasing in m.
    Figures 2 and 3: node positions, the target signal, and the restored
    signal (point scale) for every (method, penalty) pair, one noisy draw.
    """
    _, figure = _lookup(FIGURES, "figure", fig_id)
    config = config or figure.template
    n = config.n
    if figure.metric == "reciprocal_spectrum":
        scale = 1.0 / n**2
        m = np.arange(1, n + 1, dtype=float)
        spectra = [continuous_spectrum(config.example, n)]
        spectra += [discrete_spectrum(config.example, n, method) for method in _METHODS]
        cols = [m / n] + [scale / lam for lam in spectra]
        return ["m_over_n", "continuous", *_METHODS], np.column_stack(cols)
    x = Grid(n, "interior").nodes
    names = ["x", "f_true"]
    cols = [x, get_test_function(config.test_function).eval(x)]
    for method in _METHODS:
        for pen in figure.penalties:
            sol, _ = run_cell(replace(config, method=method, penalty=pen))
            cols.append(np.asarray(sol.solution) * sqrt(n))  # back to point scale
            names.append(f"{method}_{pen}")
    return names, np.column_stack(cols)
