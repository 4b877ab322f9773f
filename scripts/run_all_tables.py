"""Regenerate every benchmark table as CSV + JSON under an output directory.

Tables 1-3 are deterministic (forward image error, LSRE, MSRE); tables 4-7
are the deblurring benchmarks, aggregated as medians over the seed list.
The full 20-seed run takes 5.4-6 s on two cores, 4.8-5.5 s of it in the
tables (three runs); pass --seeds 0,1,2 for a quick one.
"""
import argparse
import pathlib
import sys
import time

from graphtik.cli import parse_seeds
from graphtik.experiments import TABLES, run_table
from graphtik.reporting import write_report_json, write_table_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="directory for table files")
    ap.add_argument("--seeds", default=None, help='comma separated, e.g. "0,1,2" (default 0..19)')
    ap.add_argument("--tables", default=None, help='subset to run, e.g. "1,4,6"')
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    ids = tuple(int(t) for t in args.tables.split(",")) if args.tables else tuple(TABLES)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for tid in ids:
        t0 = time.time()
        report = run_table(tid, seeds)
        write_table_csv(str(out_dir / f"table{tid}.csv"), report)
        write_report_json(str(out_dir / f"table{tid}.json"), report)
        print(f"table {tid}: {len(report.cells)} cells in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
