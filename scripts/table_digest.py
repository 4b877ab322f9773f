"""Print one sha256 per table and one for figure 1, to compare two checkouts.

    PYTHONPATH=src python scripts/table_digest.py [--seeds 0,1,2]

Each table line hashes the JSON of ``run_table(id, seeds).cells`` with sorted
keys; JSON writes every float as its shortest round-trip repr, so two digests
agree exactly when every cell has the same bits.  The figure line hashes
figure 1's column names and the bytes of its data array.  Running the script
on two commits with the same seeds shows whether a change kept the bytes of
every table and of figure 1.  The default seeds are 0..19.
"""
import argparse
import hashlib
import json
import sys

from graphtik.cli import parse_seeds
from graphtik.experiments import TABLES, emit_figure_data, run_table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default=None, help='comma separated, e.g. "0,1,2" (default 0..19)')
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    for tid in TABLES:
        cells = json.dumps(run_table(tid, seeds).cells, sort_keys=True)
        print(f"table {tid}: {hashlib.sha256(cells.encode()).hexdigest()}")
    names, data = emit_figure_data(1)
    digest = hashlib.sha256(",".join(names).encode() + data.tobytes())
    print(f"figure 1: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
