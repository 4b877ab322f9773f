"""The three benchmark workloads: set-up, warm-up and one timed pass each.

A workload only drives graphtik through its public functions.  Every call
looks the function up on its module at call time (``E.run_table`` rather
than a name bound once at import), so the traced run's wrappers see the
benchmark's own calls as well as the package's.

This module imports neither numpy nor graphtik at import time: set-up time is
measured from the first ``import graphtik`` of a fresh process.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

METHODS = ("graph", "galerkin")
DEBLUR_PENALTIES = ("identity", "a1", "a2", "a3")
DEFAULT_SEED = 0

# the paper's restoration tables (tables 4-7): example, noise level and,
# for the single-penalty tables, the test function and penalty
DEBLUR_TABLES = {
    4: {"example": 1, "test_function": 1, "epsilon": 0.0, "penalty": "identity"},
    5: {"example": 1, "test_function": 3, "epsilon": 0.1, "penalty": "matched"},
    6: {"example": 1, "epsilon": 0.01},
    7: {"example": 2, "epsilon": 0.02},
}
SPECTRAL_TABLES = (1, 2, 3)
SPECTRAL_SIZES = (100, 500, 1000, 2000)


def import_package(root):
    """Import graphtik from ``<root>/src``, never from an installed copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import graphtik

    where = os.path.abspath(graphtik.__file__)
    if not where.startswith(src + os.sep):
        raise ImportError(f"graphtik was imported from {where}, not from {src}")
    return graphtik


@dataclass
class PassResult:
    """One timed pass: its wall time, completed cells and raw outputs."""

    wall_s: float
    cells: int
    outputs: list
    cell_walls_s: list = field(default_factory=list)


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.clean = {}  # (example, f, n) -> clean data from synthesize_data

    def bind(self):
        """Look up the package modules; graphtik must be importable."""
        from graphtik import discretization, experiments, penalty, problems, regularization, reporting

        self.D, self.E, self.Pen = discretization, experiments, penalty
        self.P, self.Reg, self.R = problems, regularization, reporting

    def synthesize(self, example: int, fid: int, n: int):
        P = self.P
        g = P.synthesize_data(
            P.get_example(example), P.get_test_function(fid), self.D.Grid(n, "interior"), "quadrature"
        )
        self.clean[(example, fid, n)] = g

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        """Untimed; fills the package's private caches."""
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def values(self, result: PassResult) -> dict:
        """Flat {key: number} of every value the pass produced."""
        raise NotImplementedError


class PaperDeblurTables(Workload):
    """Tables 4-7 at n = 100 over 20 noise seeds, serialised as JSON."""

    name = "paper-deblur-tables"
    n = 100
    seed_count = 20
    # a pass takes about 13 s, and on a shared 2-core machine its rate moves
    # by up to 20% from one pass to the next: one pass is too few samples
    min_passes = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        first = self.seed_count * self.seed
        self.seeds = tuple(range(first, first + self.seed_count))

    def setup(self):
        self.bind()
        for example in (1, 2):
            for method in METHODS:
                self.E.forward_matrix(example, self.n, method)
            for fid in (1, 2, 3, 4):
                self.synthesize(example, fid, self.n)

    def warmup(self):
        for table in DEBLUR_TABLES:
            self.R.report_to_json(self.E.run_table(table, self.seeds[:1]))

    def run_pass(self, index: int) -> PassResult:
        texts = []
        t0 = time.perf_counter()
        for table in DEBLUR_TABLES:
            texts.append(self.R.report_to_json(self.E.run_table(table, self.seeds)))
        wall = time.perf_counter() - t0
        return PassResult(wall, _restorations(texts), texts)

    def values(self, result: PassResult) -> dict:
        return deblur_table_values(result.outputs)


class DeblurN1000(Workload):
    """Warm run_cell at n = 1000: example 2, f3, eps = 0.02, 8 configs."""

    name = "deblur-n1000"
    n = 1000
    example = 2
    fid = 3
    epsilon = 0.02

    def configs(self):
        E = self.E
        return [
            E.ExperimentConfig(
                example=self.example,
                test_function=self.fid,
                n=self.n,
                epsilon=self.epsilon,
                method=method,
                penalty=penalty,
            )
            for method in METHODS
            for penalty in DEBLUR_PENALTIES
        ]

    def noise_seed(self, index: int) -> int:
        return 1000 * self.seed + index

    def setup(self):
        self.bind()
        self.synthesize(self.example, self.fid, self.n)
        for method in METHODS:
            self.E.forward_matrix(self.example, self.n, method)

    def warmup(self):
        one = self.Reg.AlphaGrid(count=1)
        for config in self.configs()[:: len(DEBLUR_PENALTIES)]:
            self.E.run_cell(replace(config, alpha_grid=one), 0)

    def run_pass(self, index: int) -> PassResult:
        """One round: every config once, all with this round's noise seed."""
        from graphtik.errors import GraphtikError

        seed = self.noise_seed(index)
        outputs, walls = [], []
        t0 = time.perf_counter()
        for config in self.configs():
            c0 = time.perf_counter()
            try:
                sol, err = self.E.run_cell(config, seed)
                out = {"config": config, "seed": seed, "solution": sol.solution, "alpha": sol.alpha, "rre": err}
            except GraphtikError as exc:
                out = {"config": config, "seed": seed, "error": str(exc)}
            walls.append(time.perf_counter() - c0)
            outputs.append(out)
        wall = time.perf_counter() - t0
        return PassResult(wall, sum("error" not in o for o in outputs), outputs, walls)

    def values(self, result: PassResult) -> dict:
        out = {}
        for o in result.outputs:
            key = f"{o['config'].method}.{o['config'].penalty}"
            out[key + ".rre"] = o.get("rre", float("nan"))
            out[key + ".alpha"] = o.get("alpha", float("nan"))
        return out


class SpectralTables(Workload):
    """Tables 1-3 (forward-image and spectral errors) at n up to 2000."""

    name = "spectral-tables"

    def setup(self):
        self.bind()
        for n in SPECTRAL_SIZES:
            self.E.diagnostic_matrix(2, n, "galerkin")
            self.E.discrete_spectrum(2, n, "graph")

    def warmup(self):
        self.run_pass(0)

    def run_pass(self, index: int) -> PassResult:
        texts = []
        t0 = time.perf_counter()
        for table in SPECTRAL_TABLES:
            texts.append(self.R.report_to_json(self.E.run_table(table)))
        wall = time.perf_counter() - t0
        return PassResult(wall, sum(len(_cells(t)) for t in texts), texts)

    def values(self, result: PassResult) -> dict:
        out = {}
        for text in result.outputs:
            for cell in _cells(text):
                key = f"t{cell['table']}.{cell['method']}.n{cell['n']}"
                if "m" in cell:
                    key += f".m{cell['m']}"
                out[key] = cell["value"]
        return out


WORKLOADS = {w.name: w for w in (PaperDeblurTables, DeblurN1000, SpectralTables)}


def _cells(text: str) -> list:
    return json.loads(text)["cells"]


def _restorations(texts) -> int:
    return sum(c.get("seeds_used", 0) for t in texts for c in _cells(t))


def deblur_cell_values(cell: dict) -> dict:
    key = f"t{cell['table']}.f{cell['f']}.{cell['method']}.{cell['penalty']}"
    return {key + ".rre": cell["value"], key + ".alpha": cell["alpha_median"]}


def deblur_table_values(texts) -> dict:
    out = {}
    for text in texts:
        for cell in _cells(text):
            out.update(deblur_cell_values(cell))
    return out
