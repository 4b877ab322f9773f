"""Output checks: recorded values by tolerance, restorations by definition.

Values are compared at a relative tolerance far below the paper's
4-significant-digit printing, never by digest: a change of BLAS thread
count moves the last bits of a value without changing the result.
Every restoration checked here is held against the Tikhonov definition,
min ||K f - g||^2 + alpha^2 ||A f||^2, rebuilt from the public builders.
"""
from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from math import ceil, isfinite, sqrt

import numpy as np

from workloads import DEBLUR_TABLES, DEFAULT_SEED, deblur_cell_values

RTOL = 1e-5  # against recorded values; the paper prints 4 digits
RESIDUAL_TOL = 1e-8  # relative normal-equation residual, the package's own bound
RECOMPUTE_TOL = 1e-9  # an RRE or median recomputed from the same vectors


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def close(value, expected, rtol=RTOL) -> bool:
    value, expected = float(value), float(expected)
    if not (isfinite(value) and isfinite(expected)):
        return False
    return abs(value - expected) <= rtol * max(abs(expected), 1e-300)


def mismatches(values: dict, reference: dict, rtol=RTOL) -> list:
    """Keys whose value is missing, extra or outside rtol of the reference."""
    keys = sorted(set(values) | set(reference))
    return [k for k in keys if k not in values or k not in reference or not close(values[k], reference[k], rtol)]


def check_deblur_tables(texts, seed_count: int, reference: dict | None) -> Verdict:
    """Restorations attempted and failed in one pass of tables 4-7.

    A cell's failures are its missing seeds, counted from ``seeds_used``:
    the cell's ``error`` string keeps only the last failing seed.  A cell
    that disagrees with the reference fails as a whole.
    """
    v = Verdict()
    for text in texts:
        payload = json.loads(text)  # the wall-clock "created" field is ignored
        table = payload["config"]["table"]
        roundtrip = payload.get("roundtrip") or {}
        if not roundtrip.get("ok"):
            v.problems.append(f"table {table}: roundtrip check not ok: {roundtrip}")
        for cell in payload["cells"]:
            expected = 1 if DEBLUR_TABLES[table]["epsilon"] == 0.0 else seed_count
            v.attempted += expected
            missing = expected - int(cell.get("seeds_used", 0))
            values = deblur_cell_values(cell)
            if reference is not None:
                wrong = mismatches(values, {k: reference.get(k, float("nan")) for k in values})
            else:
                wrong = [k for k, x in values.items() if missing == 0 and not isfinite(x)]
            if wrong:
                v.problems.append(f"table {table}: {', '.join(wrong)} disagree with the reference")
                missing = expected
            v.failed += missing
    return v


def penalty_matrix(Pen, config, g_eps, reference):
    n = config.n
    if config.penalty == "identity":
        return np.eye(n)
    if config.penalty == "a1":
        return Pen.dirichlet_penalty(n).matrix
    if config.penalty == "a2":
        return Pen.neumann_penalty(n).matrix
    params = Pen.SimilarityParams(r=ceil(config.r_fraction * n), sigma=config.sigma)
    delta = Pen.data_graph_laplacian(g_eps, params)
    if config.penalty == "a3":
        return delta.matrix
    return Pen.kernel_matched_penalty(delta, reference).matrix


def check_restoration(workload, config, seed, solution, alpha, rre_reported, grams: dict) -> list:
    """Problems with one returned restoration, judged by the definition."""
    E, P, D = workload.E, workload.P, workload.D
    n = config.n
    root = sqrt(n)
    reference = P.get_test_function(config.test_function).eval(D.Grid(n, "interior").nodes) / root
    g = np.asarray(workload.clean[(config.example, config.test_function, n)], dtype=float) / root
    g_eps = P.add_noise(g, P.NoiseModel(config.epsilon, int(seed)))
    key = (config.example, n, config.method)
    if key not in grams:
        K = np.asarray(E.forward_matrix(*key).matrix, dtype=float)
        grams[key] = (K, K.T @ K)
    K, KtK = grams[key]
    A = np.asarray(penalty_matrix(workload.Pen, config, g_eps, reference), dtype=float)
    f = np.asarray(solution, dtype=float)
    M = KtK + alpha**2 * (A.T @ A)
    rhs = K.T @ g_eps
    gap = np.linalg.norm(M @ f - rhs) / (np.linalg.norm(M, "fro") * np.linalg.norm(f) + np.linalg.norm(rhs))
    rre = np.linalg.norm(f - reference) / np.linalg.norm(reference)
    label = f"{config.method}/{config.penalty} f{config.test_function} seed {seed}"
    problems = []
    if not gap <= RESIDUAL_TOL:
        problems.append(f"{label}: normal-equation residual {gap:.2e} at alpha {alpha:g}")
    if not close(rre, rre_reported, RECOMPUTE_TOL):
        problems.append(f"{label}: reported RRE {rre_reported!r}, recomputed {rre!r}")
    if not np.any(np.isclose(config.alpha_grid.values, alpha, rtol=1e-12, atol=0.0)):
        problems.append(f"{label}: alpha {alpha!r} is not a grid value")
    return problems


def check_table_definitions(workload, texts) -> list:
    """Re-solve one cell per deblur table, seed by seed, against the definition.

    The cell is drawn from the workload seed; its seed median and alpha
    median must equal the reported ones.
    """
    from graphtik.errors import GraphtikError

    problems = []
    rng = random.Random(workload.seed)
    grams = {}
    for text in texts:
        payload = json.loads(text)
        spec = DEBLUR_TABLES[payload["config"]["table"]]
        cell = rng.choice(payload["cells"])
        config = workload.E.ExperimentConfig(
            example=spec["example"],
            test_function=cell["f"],
            n=workload.n,
            epsilon=spec["epsilon"],
            method=cell["method"],
            penalty=cell["penalty"],
        )
        seeds = workload.seeds[:1] if spec["epsilon"] == 0.0 else workload.seeds
        errs, alphas = [], []
        for s in seeds:
            try:
                sol, err = workload.E.run_cell(config, s)
            except GraphtikError:
                continue  # counted from seeds_used
            problems += check_restoration(workload, config, s, sol.solution, sol.alpha, err, grams)
            errs.append(err)
            alphas.append(sol.alpha)
        if errs and not (
            close(statistics.median(errs), cell["value"], RECOMPUTE_TOL)
            and close(statistics.median(alphas), cell["alpha_median"], RECOMPUTE_TOL)
        ):
            problems.append(f"table {cell['table']} cell {config.method}/{config.penalty} f{cell['f']}: medians do not match")
    return problems


def check_paper_tables(workload, passes, reference: dict) -> Verdict:
    v = Verdict()
    ref = reference if workload.seed == DEFAULT_SEED else None
    for result in passes:
        v.add(check_deblur_tables(result.outputs, len(workload.seeds), ref))
    v.problems += check_table_definitions(workload, passes[-1].outputs)
    return v


def check_n1000(workload, passes, reference: dict) -> Verdict:
    v = Verdict()
    grams = {}
    for result in passes:
        for o in result.outputs:
            v.attempted += 1
            if "error" in o:
                v.failed += 1
                continue
            problems = check_restoration(workload, o["config"], o["seed"], o["solution"], o["alpha"], o["rre"], grams)
            if problems:
                v.failed += 1
                v.problems += problems
    if workload.seed == DEFAULT_SEED:
        wrong = mismatches(workload.values(passes[0]), reference)
        if wrong:
            v.problems.append(f"round 0: {', '.join(wrong)} disagree with the reference")
    return v


def check_spectral(workload, passes, reference: dict) -> Verdict:
    v = Verdict()
    for result in passes:
        values = workload.values(result)
        wrong = mismatches(values, reference)
        v.attempted += result.cells
        v.failed += len(wrong)
        if wrong:
            v.problems.append(f"{', '.join(wrong)} disagree with the reference")
    return v


CHECKS = {
    "paper-deblur-tables": check_paper_tables,
    "deblur-n1000": check_n1000,
    "spectral-tables": check_spectral,
}
