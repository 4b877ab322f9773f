"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""
import json
import os

from checks import RTOL, check_deblur_tables, check_restoration, mismatches
from probe import ROOT
from tracing import PER_LAYER, TARGETS, Tracer, layer_metrics
from workloads import DeblurN1000, import_package

import_package(ROOT)

from graphtik import experiments as E  # noqa: E402


def _module_attr(module_name, attr):
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def test_wrappers_restore_the_original_names():
    originals = {(m, a): _module_attr(m, a) for m, a, _, _ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        for (m, a), fn in originals.items():
            wrapped = _module_attr(m, a)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    finally:
        tracer.restore()
    for (m, a), fn in originals.items():
        assert _module_attr(m, a) is fn
    assert tracer.absent == []


def test_a_deleted_name_is_reported_absent():
    tracer = Tracer(
        targets=(
            ("graphtik.experiments", "no_such_layer", "experiments.gone", None),
            ("graphtik.no_such_module", "anything", "gone.too", None),
            ("graphtik.experiments", "run_cell", "experiments.run_cell", None),
        )
    )
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["graphtik.experiments.no_such_layer", "graphtik.no_such_module.anything"]
    assert not hasattr(E, "no_such_layer")


def test_traced_cell_spans_and_layer_metrics():
    config = E.ExperimentConfig(example=2, test_function=3, n=16, epsilon=0.02, penalty="a3")
    E.run_cell(config, 0)  # fill the caches: no set-up work in the traced call
    tracer = Tracer()
    tracer.install()
    tracer.phase = "pass"
    try:
        E.run_cell(config, 1)
    finally:
        tracer.restore()
    m = layer_metrics(tracer.spans)
    assert m["regularization.tikhonov_solve.calls_per_cell"] == 50
    assert m["penalty.build_ms.a3"] > 0 and m["penalty.build_ms.a1"] == 0
    assert m["experiments.run_cell_ms.p50"] > m["regularization.alpha_sweep_ms.p50"] > 0
    assert 0 < m["experiments.run_cell.self_ms.p50"] < m["experiments.run_cell_ms.p50"]
    assert m["trace.setup_spans_in_pass"] == 0
    names = {n for n, _ in PER_LAYER}
    assert set(m) == names - {"error_rate", "trace.overhead_pct"}


def _table6(values, seeds_used=20):
    cells = [
        {
            "table": 6,
            "f": 1,
            "method": method,
            "penalty": "a1",
            "metric": "rre_median",
            "value": value,
            "alpha_median": 0.5,
            "seeds_used": seeds_used,
        }
        for method, value in zip(("graph", "galerkin"), values)
    ]
    payload = {"config": {"table": 6}, "cells": cells, "roundtrip": {"ok": True}, "created": "now"}
    return [json.dumps(payload)]


REFERENCE = {
    "t6.f1.graph.a1.rre": 0.25,
    "t6.f1.graph.a1.alpha": 0.5,
    "t6.f1.galerkin.a1.rre": 0.125,
    "t6.f1.galerkin.a1.alpha": 0.5,
}


def test_tolerance_check_passes_an_unperturbed_cell():
    v = check_deblur_tables(_table6([0.25, 0.125]), 20, REFERENCE)
    assert (v.attempted, v.failed, v.problems) == (40, 0, [])
    # a last-bits change, as from another BLAS thread count, still passes
    v = check_deblur_tables(_table6([0.25 * (1 + 1e-12), 0.125]), 20, REFERENCE)
    assert v.problems == []


def test_tolerance_check_flags_a_cell_perturbed_by_1e_3():
    v = check_deblur_tables(_table6([0.25 * (1 + 1e-3), 0.125]), 20, REFERENCE)
    assert v.failed == 20 and len(v.problems) == 1 and "t6.f1.graph.a1.rre" in v.problems[0]
    assert mismatches({"a": 1.0 + 1e-3}, {"a": 1.0}) == ["a"]
    assert mismatches({"a": 1.0 + RTOL / 2}, {"a": 1.0}) == []
    assert mismatches({"a": 1.0}, {"a": 1.0, "b": 2.0}) == ["b"]


def test_error_rate_counts_a_cell_with_missing_seeds_as_failed():
    v = check_deblur_tables(_table6([0.25, 0.125], seeds_used=17), 20, None)
    assert (v.attempted, v.failed) == (40, 6)
    assert v.problems == []


def test_a_failed_roundtrip_is_a_problem():
    payload = json.loads(_table6([0.25, 0.125])[0])
    payload["roundtrip"]["ok"] = False
    v = check_deblur_tables([json.dumps(payload)], 20, REFERENCE)
    assert v.problems


def test_restoration_is_checked_against_the_tikhonov_definition():
    workload = DeblurN1000(0)
    workload.n = 24
    workload.setup()
    grams = {}
    for penalty in ("identity", "a3"):
        config = E.ExperimentConfig(example=2, test_function=3, n=24, epsilon=0.02, penalty=penalty)
        sol, err = E.run_cell(config, 5)
        assert check_restoration(workload, config, 5, sol.solution, sol.alpha, err, grams) == []
        bent = sol.solution * (1 + 1e-3)
        problems = check_restoration(workload, config, 5, bent, sol.alpha, err, grams)
        assert any("normal-equation residual" in p for p in problems)
        assert any("reported RRE" in p for p in problems)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"paper-deblur-tables", "deblur-n1000", "spectral-tables"}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "cells_per_s", "cell_ms.p50", "peak_rss_mb"]


def test_alpha_outside_the_grid_is_flagged():
    workload = DeblurN1000(0)
    workload.n = 24
    workload.setup()
    config = E.ExperimentConfig(example=2, test_function=3, n=24, epsilon=0.02)
    sol, err = E.run_cell(config, 2)
    problems = check_restoration(workload, config, 2, sol.solution, sol.alpha * 1.01, err, {})
    assert any("not a grid value" in p for p in problems)
