"""Span tracing by wrapping the module-level names graphtik calls its layers by.

``Tracer.install`` replaces, for example, ``graphtik.experiments.alpha_sweep``
with a wrapper that records a span around the original, so the package's own
``run_cell``/``run_table`` code runs unchanged and its calls are seen.  A name
that no longer exists is reported as absent instead of failing the run.
``Tracer.restore`` puts every original back.

Spans are kept in memory as dicts (name, phase, start, end, parent, cell,
attrs) and written as JSONL at the end.  ``layer_metrics`` turns the spans of
the timed passes (phase "pass") and of set-up (phase "setup") into the
benchmark's per-layer metrics.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time

from workloads import SPECTRAL_SIZES


def _table(table_id, *args, **kwargs):
    return {"table": int(table_id)}


def _cell(config, *args, **kwargs):
    return {"n": config.n, "method": config.method, "penalty": config.penalty}


def _diagnostic(example_id, n, *rest, **kwargs):
    return {"n": int(n), "method": rest[-1]}


def _synthesize(example, f_true, grid, mode="quadrature"):
    return {
        "example": "".join(ch for ch in example.id if ch.isdigit()),
        "f": getattr(f_true, "id", None),
        "n": grid.n,
        "mode": mode,
    }


def _n_second(first, n, *args, **kwargs):
    return {"n": int(n)}


def _operator_n(op, *args, **kwargs):
    return {"n": op.grid.n}


_X = "graphtik.experiments"
# (module, attribute, span name, attribute describer)
TARGETS = (
    (_X, "run_table", "experiments.run_table", _table),
    (_X, "run_cell", "experiments.run_cell", _cell),
    (_X, "discrete_spectrum", "experiments.discrete_spectrum", _diagnostic),
    (_X, "forward_image_error", "experiments.forward_image_error", _diagnostic),
    (_X, "TikhonovProblem", "regularization.TikhonovProblem", None),
    (_X, "alpha_sweep", "regularization.alpha_sweep", None),
    ("graphtik.regularization", "tikhonov_solve", "regularization.tikhonov_solve", None),
    (_X, "dirichlet_penalty", "penalty.dirichlet_penalty", None),
    (_X, "neumann_penalty", "penalty.neumann_penalty", None),
    (_X, "data_graph_laplacian", "penalty.data_graph_laplacian", None),
    (_X, "kernel_matched_penalty", "penalty.kernel_matched_penalty", None),
    (_X, "synthesize_data", "problems.synthesize_data", _synthesize),
    ("graphtik.problems", "synthesize_data", "problems.synthesize_data", _synthesize),
    (_X, "add_noise", "problems.add_noise", None),
    (_X, "build_schrodinger_operator", "discretization.build_schrodinger_operator", _n_second),
    (_X, "pseudo_inverse", "discretization.pseudo_inverse", _operator_n),
    (_X, "build_galerkin_operator", "discretization.build_galerkin_operator", _n_second),
    ("graphtik.reporting", "report_to_json", "reporting.report_to_json", None),
)

_MISSING = object()


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.phase = "setup"
        self.absent = []
        self._stack = []
        self._installed = []

    def wrap(self, fn, name, describe=None):
        def traced(*args, **kwargs):
            attrs = {}
            if describe is not None:
                try:
                    attrs = describe(*args, **kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed signature loses the attributes, not the span
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            if name == "experiments.run_cell":
                cell = index
            else:
                cell = self.spans[parent]["cell"] if parent is not None else None
            span = {"name": name, "phase": self.phase, "parent": parent, "cell": cell, "attrs": attrs}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, span_name, describe in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, _MISSING)
            if original is _MISSING:
                label = f"{module_name}.{attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            setattr(module, attr, self.wrap(original, span_name, describe))
            self._installed.append((module, attr, original))

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ------------------------------------------------------------------ metrics

FORWARD_NS = (100, 1000, 2000)
DATA_VECTORS = [(1, f, 100) for f in (1, 2, 3, 4)] + [(2, f, 100) for f in (1, 2, 3, 4)] + [(2, 3, 1000)]
PENALTIES = ("a1", "a2", "a3", "matched")
PENALTY_SPANS = {
    "a1": ("penalty.dirichlet_penalty",),
    "a2": ("penalty.neumann_penalty",),
    "a3": ("penalty.data_graph_laplacian",),
    "matched": ("penalty.data_graph_laplacian", "penalty.kernel_matched_penalty"),
}

PER_LAYER = (
    [(f"experiments.run_table_s.t{t}", "s") for t in range(1, 8)]
    + [
        ("experiments.run_cell_ms.p50", "ms"),
        ("experiments.run_cell_ms.p95", "ms"),
        ("experiments.run_cell.self_ms.p50", "ms"),
    ]
    + [(f"experiments.discrete_spectrum_ms.{m}.n{n}", "ms") for m in ("graph", "galerkin") for n in SPECTRAL_SIZES]
    + [(f"experiments.forward_image_error_ms.{m}.n{n}", "ms") for m in ("graph", "galerkin") for n in FORWARD_NS]
    + [
        ("regularization.problem_setup_ms.p50", "ms"),
        ("regularization.alpha_sweep_ms.p50", "ms"),
        ("regularization.tikhonov_solve.calls_per_cell", "count"),
    ]
    + [(f"penalty.build_ms.{p}", "ms") for p in PENALTIES]
    + [(f"problems.synthesize_data_s.ex{e}.f{f}.n{n}", "s") for e, f, n in DATA_VECTORS]
    + [("problems.add_noise_us.p50", "us")]
    + [(f"discretization.build_schrodinger_ms.n{n}", "ms") for n in SPECTRAL_SIZES]
    + [(f"discretization.pseudo_inverse_ms.n{n}", "ms") for n in (100, 1000)]
    + [(f"discretization.build_galerkin_ms.n{n}", "ms") for n in SPECTRAL_SIZES]
    + [
        ("reporting.report_to_json_ms", "ms"),
        ("error_rate", "ratio"),
        ("trace.setup_spans_in_pass", "count"),
        ("trace.overhead_pct", "%"),
    ]
)


def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _p95(xs) -> float:
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(0.95 * len(xs)))]


def is_setup_work(span) -> bool:
    """Work the caches should hold; inside a timed pass it means set-up leaked."""
    if span["name"].startswith("discretization."):
        return True
    return span["name"] == "problems.synthesize_data" and span["attrs"].get("mode") == "quadrature"


def layer_metrics(spans) -> dict:
    """Every PER_LAYER metric except error_rate and trace.overhead_pct.

    A metric whose spans are absent on this workload reads 0.
    """
    timed = [s for s in spans if s["phase"] == "pass"]
    setup = [s for s in spans if s["phase"] == "setup"]

    def durs(pool, name, scale, **attrs):
        return [
            _dur(s) * scale
            for s in pool
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    children = {}
    for i, s in enumerate(timed):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    index = {id(s): i for i, s in enumerate(spans)}
    cells = [s for s in timed if s["name"] == "experiments.run_cell"]

    out = {}
    for t in range(1, 8):
        out[f"experiments.run_table_s.t{t}"] = _median(durs(timed, "experiments.run_table", 1.0, table=t))
    cell_ms = [_dur(s) * 1e3 for s in cells]
    out["experiments.run_cell_ms.p50"] = _median(cell_ms)
    out["experiments.run_cell_ms.p95"] = _p95(cell_ms)
    self_ms = [(_dur(s) - sum(_dur(c) for c in children.get(index[id(s)], []))) * 1e3 for s in cells]
    out["experiments.run_cell.self_ms.p50"] = _median(self_ms)
    for m in ("graph", "galerkin"):
        for n in SPECTRAL_SIZES:
            out[f"experiments.discrete_spectrum_ms.{m}.n{n}"] = _median(
                durs(timed, "experiments.discrete_spectrum", 1e3, method=m, n=n)
            )
        for n in FORWARD_NS:
            out[f"experiments.forward_image_error_ms.{m}.n{n}"] = _median(
                durs(timed, "experiments.forward_image_error", 1e3, method=m, n=n)
            )
    out["regularization.problem_setup_ms.p50"] = _median(durs(timed, "regularization.TikhonovProblem", 1e3))
    out["regularization.alpha_sweep_ms.p50"] = _median(durs(timed, "regularization.alpha_sweep", 1e3))
    solves = len(durs(timed, "regularization.tikhonov_solve", 1.0))
    out["regularization.tikhonov_solve.calls_per_cell"] = solves / len(cells) if cells else 0.0
    for p in PENALTIES:
        builds = [
            sum(_dur(c) for c in children.get(index[id(s)], []) if c["name"] in PENALTY_SPANS[p]) * 1e3
            for s in cells
            if s["attrs"].get("penalty") == p
        ]
        out[f"penalty.build_ms.{p}"] = _median(builds)
    for e, f, n in DATA_VECTORS:
        out[f"problems.synthesize_data_s.ex{e}.f{f}.n{n}"] = _median(
            durs(setup, "problems.synthesize_data", 1.0, example=str(e), f=f, n=n, mode="quadrature")
        )
    out["problems.add_noise_us.p50"] = _median(durs(timed, "problems.add_noise", 1e6))
    for n in SPECTRAL_SIZES:
        out[f"discretization.build_schrodinger_ms.n{n}"] = _median(
            durs(setup, "discretization.build_schrodinger_operator", 1e3, n=n)
        )
        out[f"discretization.build_galerkin_ms.n{n}"] = _median(
            durs(setup, "discretization.build_galerkin_operator", 1e3, n=n)
        )
    for n in (100, 1000):
        out[f"discretization.pseudo_inverse_ms.n{n}"] = _median(durs(setup, "discretization.pseudo_inverse", 1e3, n=n))
    out["reporting.report_to_json_ms"] = _median(durs(timed, "reporting.report_to_json", 1e3))
    out["trace.setup_spans_in_pass"] = sum(1 for s in timed if is_setup_work(s))
    return out
