"""Print sha256 digests of every table and figure, to compare two checkouts.

    PYTHONPATH=src python scripts/table_digest.py [--seeds 0,1,2]

Each table line hashes the JSON of ``run_table(id, seeds).cells`` with sorted
keys; JSON writes every float as its shortest round-trip repr, so two digests
agree exactly when every cell has the same bits.  Each restoration table
(tables 4-7) gets a second line that hashes the JSON list of its cells'
``alpha_median`` values alone, so a change that moves table values by
roundoff but no chosen alpha keeps that line.  Every table then gets a
report line that hashes ``report_to_json`` of the same report: its
config-hash header, its seeds and its roundtrip record as well as its cells.
Each figure line hashes the figure's column names and the bytes of its data
array.  Running the script on two commits with the same seeds shows whether
a change kept the bytes of every table, report and figure, and whether it
kept every chosen alpha.  The default seeds are 0..19; the figures take
their templates' own seed.

After those 21 lines come 11 more, one per fixed command line of ``CLI_RUNS``
(each as ``python -m graphtik.cli ...``; ``--seeds`` does not change them).
Each is run in-process through ``graphtik.cli.main`` with stdout and stderr
captured, and its line hashes the exit code, stdout and stderr, so two
checkouts agree on it exactly when the command prints the same bytes and
exits with the same code.

The last 8 lines cover ``run_cell`` at n = 1000, where the sweep's
fallback solve runs most: example 2, test function 3, epsilon 0.02, one
line per method (graph, galerkin) and penalty (identity, a1, a2, a3), the
configs of the deblur-n1000 benchmark workload.  Each hashes the chosen
alpha, the RRE and the solution bytes at noise seeds 0 and 1 (``--seeds``
does not change them), so two checkouts agree on it exactly when both
seeds' solutions have the same bits.

The 2 lines after those are CLI runs like the 11 above, one per command of
``LATE_CLI_RUNS``: an alpha grid whose max overflows when squared, and an
a3 penalty whose similarity weights all underflow; both exit 1.  They
come last so that the 40 lines before them still compare with checkouts
that predate them.
"""
import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys

from graphtik import cli
from graphtik.experiments import FIGURES, TABLES, ExperimentConfig, emit_figure_data, run_cell, run_table
from graphtik.reporting import report_to_json

CLI_RUNS = (
    "spectrum --n 21 --method galerkin",
    "spectrum --n 21",
    "approx-error --n 25 --f 3",
    "deblur --n 41 --penalty a2 --eps 0.05 --seed 3",
    "deblur --n 40 --penalty a3 --eps 0.01",
    "deblur --n 1000 --penalty a1",
    "deblur --example 1 --f 1 --n 100 --penalty matched --eps 0.1",  # exit 2
    "figure --id 2",
    "table --id 5 --seeds 0,1",
    "deblur --n 1",  # exit 1
    "deblur --method x",  # exit 1
)
LATE_CLI_RUNS = (
    "deblur --n 20 --eps 0.01 --alpha-max 1e200 --alpha-min 1e-6",  # exit 1
    "deblur --n 20 --eps 0.01 --penalty a3 --sigma 1e-10",  # exit 1
)

N1000_CONFIGS = tuple(
    ExperimentConfig(example=2, test_function=3, n=1000, epsilon=0.02, method=method, penalty=penalty)
    for method in ("graph", "galerkin")
    for penalty in ("identity", "a1", "a2", "a3")
)
N1000_SEEDS = (0, 1)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_line(command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    return f"cli {command}: {_sha(json.dumps([code, out.getvalue(), err.getvalue()]).encode())}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default=None, help='comma separated, e.g. "0,1,2" (default 0..19)')
    args = ap.parse_args(argv)

    seeds = cli.parse_seeds(args.seeds)
    for tid, table in TABLES.items():
        report = run_table(tid, seeds)
        cells = report.cells
        print(f"table {tid}: {_sha(json.dumps(cells, sort_keys=True).encode())}")
        if table.metric == "rre_median":
            alphas = json.dumps([cell["alpha_median"] for cell in cells])
            print(f"table {tid} alpha_median: {_sha(alphas.encode())}")
        print(f"table {tid} report: {_sha(report_to_json(report).encode())}")
    for fid in FIGURES:
        names, data = emit_figure_data(fid)
        print(f"figure {fid}: {_sha(','.join(names).encode() + data.tobytes())}")
    for command in CLI_RUNS:
        print(_cli_line(command))
    for config in N1000_CONFIGS:
        pencils, data = {}, b""
        for seed in N1000_SEEDS:
            sol, err = run_cell(config, seed, pencils)
            data += json.dumps([sol.alpha, err]).encode() + sol.solution.tobytes()
        print(f"deblur n1000 {config.method} {config.penalty}: {_sha(data)}")
    for command in LATE_CLI_RUNS:
        print(_cli_line(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
