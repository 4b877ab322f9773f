"""Acceptance gate: the reference benchmark numbers this package reproduces.

Each check prints one [criterion N] PASS/FAIL line with its measured values
and the tolerance it applied.  Criteria 1-6 and 9-12 are deterministic; 7
and 8 compare seed medians against reference tables whose own random draws
are not reproducible, so they carry distribution-level tolerances.  Set
GRAPHTIK_ACCEPT_SEEDS to shrink the seed count (default 20) for a smoke run.

The reference tables follow one print format: values of 1e-3 and above carry
four decimals (0.0053, 0.0011, 0.3200), smaller values five significant
digits (5.3341e-4).  A printed reference therefore stands for an interval of
half a unit in its last digit either side, and criterion 4 accepts a graph
MSRE cell that lies inside that interval even where the relative tolerance is
narrower.  Of all cells in criteria 2-4 this widens only graph n=500, whose
0.0011 is +/-4.5% wide against a 2% tolerance.
"""
import os
from dataclasses import replace
from functools import lru_cache

import numpy as np

from graphtik.discretization import (
    DiscreteOperator,
    Grid,
    build_schrodinger_operator,
    pseudo_inverse,
    toeplitz_stencil,
)
from graphtik.experiments import (
    ExperimentConfig,
    continuous_spectrum,
    discrete_spectrum,
    emit_figure_data,
    forward_image_error,
    forward_matrix,
    run_cell,
    run_table,
)
from graphtik.graph_core import (
    PathTransform,
    alternating_inverse_square_transform,
    line_interior,
    transformed_path_laplacian,
)
from graphtik.metrics import lsre, msre
from graphtik.penalty import SimilarityParams, data_graph_laplacian, neumann_penalty
from graphtik.problems import EXAMPLES
from graphtik.regularization import TikhonovPencil, TikhonovProblem, filter_solution, tikhonov_solve

SEEDS = tuple(range(int(os.environ.get("GRAPHTIK_ACCEPT_SEEDS", "20"))))

# reference values: forward-image sup error for f(x) = x, second example
_IMAGE_GRAPH = {100: 4.8094e-4, 1000: 4.8213e-5, 2000: 2.4110e-5}
_IMAGE_GALERKIN = {100: 0.0016, 1000: 1.7749e-4, 2000: 8.9109e-5}

# reference values: local spectral relative errors, (m, n) -> value
_LSRE_GRAPH = {
    (1, 100): 0.0053, (1, 1000): 5.3341e-4, (1, 2000): 2.6686e-4,
    (10, 100): 0.0048, (10, 1000): 4.7988e-4, (10, 2000): 2.4007e-4,
    (50, 100): 0.0048, (50, 1000): 4.7950e-4, (50, 2000): 2.3985e-4,
}
_LSRE_GALERKIN = {
    (1, 100): 0.0100, (1, 1000): 9.9983e-4, (1, 2000): 4.9996e-4,
    (10, 100): 0.0183, (10, 1000): 0.0011, (10, 2000): 5.2034e-4,
    (50, 100): 0.1884, (50, 1000): 0.0031, (50, 2000): 0.0010,
}

# reference values: maximum spectral relative error over all indices
_MSRE_GRAPH = {100: 0.0053, 500: 0.0011, 1000: 5.3341e-4, 2000: 2.6686e-4}
_MSRE_GALERKIN = {100: 0.3200, 500: 0.3098, 1000: 0.3085, 2000: 0.3078}

# reference values: 20-seed median restoration errors, (f, method, penalty)
_RRE_EPS_001 = {
    (1, "graph", "identity"): 0.0836, (1, "graph", "a1"): 0.0664,
    (1, "graph", "a2"): 0.0869, (1, "graph", "a3"): 0.2430,
    (1, "galerkin", "identity"): 0.0876, (1, "galerkin", "a1"): 0.0686,
    (1, "galerkin", "a2"): 0.0930, (1, "galerkin", "a3"): 0.2416,
    (2, "graph", "identity"): 0.2184, (2, "graph", "a1"): 0.2275,
    (2, "graph", "a2"): 0.0185, (2, "graph", "a3"): 0.0176,
    (2, "galerkin", "identity"): 0.2262, (2, "galerkin", "a1"): 0.2477,
    (2, "galerkin", "a2"): 0.0308, (2, "galerkin", "a3"): 0.0313,
    (3, "graph", "identity"): 0.2017, (3, "graph", "a1"): 0.1954,
    (3, "graph", "a2"): 0.0391, (3, "graph", "a3"): 0.0328,
    (3, "galerkin", "identity"): 0.2098, (3, "galerkin", "a1"): 0.2258,
    (3, "galerkin", "a2"): 0.0772, (3, "galerkin", "a3"): 0.0678,
    (4, "graph", "identity"): 0.1937, (4, "graph", "a1"): 0.1912,
    (4, "graph", "a2"): 0.0293, (4, "graph", "a3"): 0.0089,
    (4, "galerkin", "identity"): 0.2021, (4, "galerkin", "a1"): 0.2227,
    (4, "galerkin", "a2"): 0.0453, (4, "galerkin", "a3"): 0.0150,
}
_RRE_EPS_002 = {
    (1, "graph", "identity"): 0.1202, (1, "graph", "a1"): 0.0893,
    (1, "graph", "a2"): 0.1133, (1, "graph", "a3"): 0.4557,
    (1, "galerkin", "identity"): 0.1190, (1, "galerkin", "a1"): 0.0905,
    (1, "galerkin", "a2"): 0.1138, (1, "galerkin", "a3"): 0.4636,
    (2, "graph", "identity"): 0.2404, (2, "graph", "a1"): 0.2185,
    (2, "graph", "a2"): 0.0169, (2, "graph", "a3"): 0.0161,
    (2, "galerkin", "identity"): 0.3330, (2, "galerkin", "a1"): 0.3306,
    (2, "galerkin", "a2"): 0.0636, (2, "galerkin", "a3"): 0.0623,
    (3, "graph", "identity"): 0.2637, (3, "graph", "a1"): 0.2553,
    (3, "graph", "a2"): 0.0426, (3, "graph", "a3"): 0.0406,
    (3, "galerkin", "identity"): 0.3200, (3, "galerkin", "a1"): 0.2908,
    (3, "galerkin", "a2"): 0.1075, (3, "galerkin", "a3"): 0.1003,
    (4, "graph", "identity"): 0.2455, (4, "graph", "a1"): 0.2395,
    (4, "graph", "a2"): 0.0307, (4, "graph", "a3"): 0.0116,
    (4, "galerkin", "identity"): 0.2937, (4, "galerkin", "a1"): 0.2703,
    (4, "galerkin", "a2"): 0.0900, (4, "galerkin", "a3"): 0.0712,
}
_REFERENCE_MEDIANS = {6: _RRE_EPS_001, 7: _RRE_EPS_002}

_PENALTIES = ("identity", "a1", "a2", "a3")


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _rel(value, reference):
    return abs(value / reference - 1.0)


def _half_unit(reference):
    """Half a unit in the last digit the reference tables print for a value."""
    if reference >= 1e-3:
        return 0.5e-4  # four decimals
    return 0.5 * 10.0 ** (np.floor(np.log10(reference)) - 4)  # five significant digits


@lru_cache(maxsize=None)
def _spectra(n):
    return (
        continuous_spectrum(2, n),
        discrete_spectrum(2, n, "graph"),
        discrete_spectrum(2, n, "galerkin"),
    )


@lru_cache(maxsize=None)
def _table_medians(table_id):
    report = run_table(table_id, SEEDS)
    return {(c["f"], c["method"], c["penalty"]): c["value"] for c in report.cells}


def test_criterion_01_stencil(capsys):
    got = toeplitz_stencil(4)
    want = np.array([np.pi**2 / 3.0, -2.0, 0.5, -2.0 / 9.0])
    err = float(np.max(np.abs(got - want)))
    _report(capsys, 1, err <= 1e-12, f"stencil row [pi^2/3, -2, 1/2, -2/9] off by {err:.1e} (tol 1e-12)")


def test_criterion_02_forward_image(capsys):
    bad = []
    for n in (100, 1000, 2000):
        eg = forward_image_error(2, n, 3, "graph")
        if _rel(eg, _IMAGE_GRAPH[n]) > 0.01:
            bad.append(f"graph n={n}: {eg:.4e} vs {_IMAGE_GRAPH[n]:.4e}")
        eb = forward_image_error(2, n, 3, "galerkin")
        if _rel(eb, _IMAGE_GALERKIN[n]) > 0.10:
            bad.append(f"galerkin n={n}: {eb:.4e} vs {_IMAGE_GALERKIN[n]:.4e}")
    detail = "sup-norm image errors within 1% (graph) / 10% (galerkin) at n=100,1000,2000"
    _report(capsys, 2, not bad, detail if not bad else "; ".join(bad))


def test_criterion_03_local_spectral_errors(capsys):
    bad = []
    for n in (100, 1000, 2000):
        lam_true, lam_graph, lam_gal = _spectra(n)
        for m in (1, 10, 50):
            vg = lsre(lam_graph, lam_true, m)
            if _rel(vg, _LSRE_GRAPH[(m, n)]) > 0.02:
                bad.append(f"graph (m={m}, n={n}): {vg:.4e} vs {_LSRE_GRAPH[(m, n)]:.4e}")
            vb = lsre(lam_gal, lam_true, m)
            if _rel(vb, _LSRE_GALERKIN[(m, n)]) > 0.10:
                bad.append(f"galerkin (m={m}, n={n}): {vb:.4e} vs {_LSRE_GALERKIN[(m, n)]:.4e}")
    detail = "all 9 graph LSRE cells within 2%, all 9 galerkin cells within 10%"
    _report(capsys, 3, not bad, detail if not bad else "; ".join(bad))


def test_criterion_04_max_spectral_error(capsys):
    bad = []
    by_print = []
    got = {}
    for n in (100, 500, 1000, 2000):
        lam_true, lam_graph, lam_gal = _spectra(n)
        vg = msre(lam_graph, lam_true)
        got[n] = vg
        ref = _MSRE_GRAPH[n]
        if abs(vg - ref) > max(0.02 * ref, _half_unit(ref)):
            bad.append(
                f"graph n={n}: {vg:.4e} vs {ref:.4e} "
                f"({_rel(vg, ref) * 100:.1f}% > 2%, outside printed precision)"
            )
        elif _rel(vg, ref) > 0.02:
            by_print.append(f"graph n={n}: {vg:.4e} inside printed {ref:.4f} +/- {_half_unit(ref):.0e}")
        vb = msre(lam_gal, lam_true)
        if _rel(vb, _MSRE_GALERKIN[n]) > 0.05:
            bad.append(f"galerkin n={n}: {vb:.4e} vs {_MSRE_GALERKIN[n]:.4e}")
    ratio = got[1000] / got[2000]
    if abs(ratio / 2.0 - 1.0) > 0.20:
        bad.append(f"halving trend 1000->2000: ratio {ratio:.3f} not within 20% of 2")
    detail = (
        "graph MSRE within 2% or the reference's printed precision, galerkin within 5%, "
        "graph halves from n=1000 to 2000"
    )
    if by_print:
        detail += "; within printed precision only: " + "; ".join(by_print)
    _report(capsys, 4, not bad, detail if not bad else "; ".join(bad))


def test_printed_precision_widens_only_graph_msre_n500():
    tables = {
        "image graph": (_IMAGE_GRAPH, 0.01), "image galerkin": (_IMAGE_GALERKIN, 0.10),
        "lsre graph": (_LSRE_GRAPH, 0.02), "lsre galerkin": (_LSRE_GALERKIN, 0.10),
        "msre graph": (_MSRE_GRAPH, 0.02), "msre galerkin": (_MSRE_GALERKIN, 0.05),
    }
    widened = [
        (name, key)
        for name, (refs, tol) in tables.items()
        for key, ref in refs.items()
        if _half_unit(ref) > tol * ref
    ]
    assert widened == [("msre graph", 500)]
    assert _half_unit(0.0011) == 0.5e-4 and np.isclose(_half_unit(5.3341e-4), 0.5e-8)


def test_criterion_05_noise_free_restoration(capsys):
    cfg = ExperimentConfig(example=1, test_function=1, n=100, epsilon=0.0, penalty="identity")
    _, err_g = run_cell(replace(cfg, method="graph"))
    _, err_b = run_cell(replace(cfg, method="galerkin"))
    ok = err_g <= 1e-5 and 0.0187 / 2.0 <= err_b <= 0.0187 * 2.0
    _report(
        capsys, 5, ok,
        f"noise-free identity-penalty RRE: graph {err_g:.3e} (<= 1e-5), "
        f"galerkin {err_b:.4f} (0.0187 within factor 2)",
    )


def test_criterion_06_spectral_curve(capsys):
    names, data = emit_figure_data(1)
    cont, graph, gal = data[:, 1], data[:, 2], data[:, 3]
    dev_graph = float(np.max(np.abs(graph / cont - 1.0)))
    hi = data[:, 0] > 0.9
    dev_gal = float(np.max(np.abs(gal[hi] / cont[hi] - 1.0)))
    ok = dev_graph <= 0.01 and dev_gal > 0.10
    _report(
        capsys, 6, ok,
        f"reciprocal-eigenvalue curve at n=100: graph within {dev_graph:.2e} of the "
        f"continuous one (tol 1%), galerkin off by {dev_gal:.2f} above m/n=0.9 (must exceed 10%)",
    )


def test_criterion_07_matched_penalty_medians(capsys):
    cfg = ExperimentConfig(example=1, test_function=3, n=100, epsilon=0.1, penalty="matched")
    medians = {}
    for method in ("graph", "galerkin"):
        errs = [run_cell(replace(cfg, method=method), s)[1] for s in SEEDS]
        medians[method] = float(np.median(errs))
    ok = all(v <= 0.01 for v in medians.values())
    _report(
        capsys, 7, ok,
        f"matched-penalty median RRE over {len(SEEDS)} seeds at eps=0.1: "
        f"graph {medians['graph']:.2e}, galerkin {medians['galerkin']:.2e} (both <= 0.01)",
    )


def test_criterion_08_noisy_table_medians(capsys):
    parts = []
    all_ok = True

    # the reference itself has graph above galerkin in (t6,f1,a3) and
    # (t7,f1,identity), so the order is only checked where it holds there
    reversals = []
    ordered = 0
    for tid in (6, 7):
        med = _table_medians(tid)
        ref = _REFERENCE_MEDIANS[tid]
        for f in (1, 2, 3, 4):
            for pen in _PENALTIES:
                if ref[(f, "graph", pen)] >= ref[(f, "galerkin", pen)]:
                    continue
                ordered += 1
                if med[(f, "graph", pen)] > med[(f, "galerkin", pen)]:
                    reversals.append(f"(t{tid},f{f},{pen})")
    ok_a = not reversals
    parts.append(f"(a) graph <= galerkin in all {ordered} pairs the reference orders" if ok_a
                 else f"(a) {len(reversals)}/{ordered} reference-ordered pairs reversed: "
                 f"{', '.join(reversals)}")
    all_ok &= ok_a

    bad_b = []
    for tid in (6, 7):
        med = _table_medians(tid)
        for f in (2, 3, 4):
            pairs = {(m, p): med[(f, m, p)] for m in ("graph", "galerkin") for p in _PENALTIES}
            best = min(pairs, key=pairs.get)
            if best != ("graph", "a3"):
                bad_b.append(f"(t{tid},f{f})->{best}")
    ok_b = not bad_b
    parts.append("(b) (graph, a3) best for f2-f4" if ok_b else f"(b) best-pair misses: {bad_b}")
    all_ok &= ok_b

    bad_c = []
    for tid in (6, 7):
        med = _table_medians(tid)
        for method in ("graph", "galerkin"):
            worst = max(_PENALTIES, key=lambda p: med[(1, method, p)])
            if worst != "a3":
                bad_c.append(f"(t{tid},{method})->{worst}")
    ok_c = not bad_c
    parts.append("(c) a3 worst for f1" if ok_c else f"(c) worst-penalty misses: {bad_c}")
    all_ok &= ok_c

    outside = []
    for tid in (6, 7):
        med = _table_medians(tid)
        ref = _REFERENCE_MEDIANS[tid]
        for key, want in ref.items():
            dev = med[key] / want - 1.0
            if abs(dev) > 0.30:
                f, method, pen = key
                outside.append(f"(t{tid},f{f},{method},{pen}) {dev:+.0%}")
    ok_d = not outside
    parts.append("(d) all 64 medians within +/-30% of reference" if ok_d
                 else f"(d) {len(outside)}/64 outside +/-30%: {', '.join(outside)}")
    all_ok &= ok_d

    if not all_ok:
        parts.append(
            "known unresolved gaps, measured over 200 seeds: example-2 galerkin medians for "
            "f2-f4 lie 7-74% below the reference (20-seed spread at most +/-19%; the n/(n+1) "
            "weight does not close it), and f1 with a3 is off in both tables (t6 +28%/+27%, "
            "t7 -14%/-16%, graph/galerkin); the paper's setup of the example-2 data and "
            "galerkin runs is not in PAPER.md, so neither can be settled as a program fault"
        )
    _report(capsys, 8, all_ok, f"{len(SEEDS)}-seed medians: " + "  ".join(parts))


def test_criterion_09_filter_equivalence(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 30))
        K = rng.standard_normal((n, n))
        g = rng.standard_normal(n)
        alpha = 10.0 ** rng.uniform(-6, 2)
        p = TikhonovProblem(
            TikhonovPencil(
                DiscreteOperator(K, Grid(n)),
                DiscreteOperator(np.eye(n), Grid(n)),
            ),
            g,
        )
        f_solve = tikhonov_solve(p, alpha)
        f_filter = filter_solution(np.linalg.svd(K), g, alpha)
        gap = np.linalg.norm(f_filter - f_solve) / max(np.linalg.norm(f_solve), 1e-300)
        worst = max(worst, float(gap))
    _report(
        capsys, 9, worst <= 1e-8,
        f"SVD filter vs identity-penalty solve on 50 random problems: worst gap {worst:.2e} (tol 1e-8)",
    )


def test_criterion_10_penalty_invariants(capsys):
    rng = np.random.default_rng(0)
    mats = [neumann_penalty(100).matrix]
    for _ in range(5):
        n = int(rng.integers(20, 120))
        r = int(rng.integers(1, max(2, n // 3)))
        sigma = 10.0 ** rng.uniform(-2, 0)
        mats.append(data_graph_laplacian(rng.standard_normal(n), SimilarityParams(r, sigma)).matrix)
    # the pipeline settings: fifth of the nodes as radius, narrow kernel
    mats.append(data_graph_laplacian(0.05 * rng.standard_normal(100), SimilarityParams(20, 0.01)).matrix)
    bad = []
    for i, A in enumerate(mats):
        scale = max(1.0, float(np.max(np.abs(A))))
        if np.max(np.abs(A - A.T)) != 0.0:
            bad.append(f"matrix {i} not symmetric")
        if np.max(np.abs(A.sum(axis=1))) > 1e-10 * scale:
            bad.append(f"matrix {i} row sums nonzero")
        if np.linalg.eigvalsh(A)[0] < -1e-10:
            bad.append(f"matrix {i} eigmin {np.linalg.eigvalsh(A)[0]:.2e}")
    detail = f"{len(mats)} penalty Laplacians symmetric, zero row sums, eigmin >= -1e-10"
    _report(capsys, 10, not bad, detail if not bad else "; ".join(bad))


def test_criterion_11_penrose_identities(capsys):
    rng = np.random.default_rng(1)
    ops = []
    for k in range(6):
        n = int(rng.integers(3, 40))
        A = rng.standard_normal((n, n))
        if k % 2:
            A[:, 0] = A[:, -1]  # exact rank deficiency
        ops.append(DiscreteOperator(A, Grid(n)))
    for ex_id in (1, 2):
        ops.append(build_schrodinger_operator(EXAMPLES[ex_id].potential, 100))
    ops.append(forward_matrix(2, 100, "galerkin"))
    worst = 0.0
    for op in ops:
        A = np.asarray(op.matrix, dtype=float)
        K = pseudo_inverse(op).matrix
        nA, nK = np.linalg.norm(A), np.linalg.norm(K)
        worst = max(
            worst,
            float(np.linalg.norm(A @ K @ A - A) / nA),
            float(np.linalg.norm(K @ A @ K - K) / nK),
            float(np.linalg.norm(A @ K - (A @ K).T) / max(1.0, np.linalg.norm(A @ K))),
            float(np.linalg.norm(K @ A - (K @ A).T) / max(1.0, np.linalg.norm(K @ A))),
        )
    _report(
        capsys, 11, worst <= 1e-8,
        f"Penrose identities on 6 random + 3 package operators: worst residual {worst:.2e} (tol 1e-8)",
    )


def test_criterion_12_cross_module_identity(capsys):
    transform = alternating_inverse_square_transform()
    bad = []
    for ex_id in (1, 2):
        q = EXAMPLES[ex_id].potential
        for n in (5, 100):
            L = build_schrodinger_operator(q, n).matrix
            tpl = transformed_path_laplacian(line_interior(n), transform, "analytic")
            rhs = (n + 1) ** 2 * tpl + np.diag(q(Grid(n, "interior").nodes))
            if not np.array_equal(L, rhs):
                bad.append(f"lattice operator differs from scaled path sum (ex {ex_id}, n={n})")
    n = 30
    exact = transformed_path_laplacian(line_interior(n), transform, "analytic")
    partial = PathTransform(phi=transform.phi)  # raw series, no closed tail
    diffs = [
        float(np.max(np.abs(transformed_path_laplacian(line_interior(n), partial, M) - exact)))
        for M in (10, 100, 1000)
    ]
    if not (diffs[0] > diffs[1] > diffs[2]):
        bad.append(f"truncation error not decreasing: {diffs}")
    if diffs[2] > 1e-5:
        bad.append(f"truncation error at M=1000 still {diffs[2]:.1e}")
    detail = (
        "lattice operator equals (n+1)^2 * analytic path sum + diag(q) exactly; "
        f"truncated sums converge ({diffs[0]:.1e} -> {diffs[2]:.1e})"
    )
    _report(capsys, 12, not bad, detail if not bad else "; ".join(bad))
