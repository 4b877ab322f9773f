"""Print sha256 digests of every table and figure, to compare two checkouts.

    PYTHONPATH=src python scripts/table_digest.py [--seeds 0,1,2]

Each table line hashes the JSON of ``run_table(id, seeds).cells`` with sorted
keys; JSON writes every float as its shortest round-trip repr, so two digests
agree exactly when every cell has the same bits.  Each restoration table
(tables 4-7) gets a second line that hashes the JSON list of its cells'
``alpha_median`` values alone, so a change that moves table values by
roundoff but no chosen alpha keeps that line.  Each figure line hashes the
figure's column names and the bytes of its data array.  Running the script
on two commits with the same seeds shows whether a change kept the bytes of
every table and figure, and whether it kept every chosen alpha.  The default
seeds are 0..19; the figures take their templates' own seed.
"""
import argparse
import hashlib
import json
import sys

from graphtik.cli import parse_seeds
from graphtik.experiments import FIGURES, TABLES, emit_figure_data, run_table


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default=None, help='comma separated, e.g. "0,1,2" (default 0..19)')
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    for tid, table in TABLES.items():
        cells = run_table(tid, seeds).cells
        print(f"table {tid}: {_sha(json.dumps(cells, sort_keys=True).encode())}")
        if table.metric == "rre_median":
            alphas = json.dumps([cell["alpha_median"] for cell in cells])
            print(f"table {tid} alpha_median: {_sha(alphas.encode())}")
    for fid in FIGURES:
        names, data = emit_figure_data(fid)
        print(f"figure {fid}: {_sha(','.join(names).encode() + data.tobytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
