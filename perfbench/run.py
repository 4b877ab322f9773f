"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; graphtik is imported from ./src.  Workloads
are listed in workloads.py and explained in README.md.

--trace 0 reports the end-to-end metrics: set-up time (median of one
in-process and two fresh-process set-ups), cells per second and the median
cell time over the timed passes, and peak resident memory.  --trace 1 wraps
the package's layer boundaries (tracing.py), runs one untraced pass as the
baseline, then the traced passes, and reports the per-layer metrics; the
spans go to perfbench/out/trace-<workload>-seed<n>.jsonl.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the environment and any problems found.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from probe import ROOT, timed_setup
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, import_package

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150


def probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    src = os.path.join(ROOT, "src", "graphtik")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "src_graphtik_lines": lines,
    }


def end_to_end(workload, setup_s, passes) -> dict:
    if workload.name == "deblur-n1000":
        cell_ms = [w * 1e3 for p in passes for w in p.cell_walls_s]
    else:
        cell_ms = [p.wall_s / max(p.cells, 1) * 1e3 for p in passes]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "cells_per_s": (statistics.median(p.cells / p.wall_s for p in passes), "1/s"),
        "cell_ms.p50": (statistics.median(cell_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            import_package(ROOT)
            tracer.install()
        setup_s = [timed_setup(workload)]
    except ImportError as exc:
        print(f"cannot import graphtik from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import checks  # imports numpy, so only after the timed set-up

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload.name]

    baseline = None
    if tracer is None:
        setup_s += [probe_setup(workload.name, workload.seed) for _ in range(SETUP_SAMPLES - 1)]
        workload.warmup()
    else:
        tracer.restore()
        workload.warmup()
        baseline = workload.run_pass(0)  # untraced: the values and wall time to compare with
        tracer.phase = "pass"
        tracer.install()

    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < args.seconds:
        passes.append(workload.run_pass(len(passes)))
    if tracer is not None:
        tracer.restore()

    verdict = checks.CHECKS[workload.name](workload, passes, reference)
    if tracer is None:
        metrics = end_to_end(workload, setup_s, passes)
    else:
        if workload.values(passes[0]) != workload.values(baseline):
            verdict.problems.append("the traced pass did not reproduce the untraced values exactly")
        values = layer_metrics(tracer.spans)
        if values["trace.setup_spans_in_pass"]:
            verdict.problems.append("set-up work (discretization or quadrature) ran inside a timed pass")
        values["error_rate"] = verdict.failed / verdict.attempted
        traced_wall = statistics.median(p.wall_s for p in passes)
        values["trace.overhead_pct"] = (traced_wall / baseline.wall_s - 1.0) * 100.0
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write_jsonl(os.path.join(HERE, "out", f"trace-{workload.name}-seed{workload.seed}.jsonl"))

    record = {
        "environment": environment(),
        "workload": workload.name,
        "seed": workload.seed,
        "pass_walls_s": [p.wall_s for p in passes],
        "setup_samples_s": setup_s if tracer is None else None,
        "absent_layers": tracer.absent if tracer is not None else [],
        "problems": verdict.problems,
    }
    print(json.dumps(record))
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
