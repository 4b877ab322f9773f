"""Regenerate every benchmark table as CSV + JSON under an output directory.

Tables 1-3 are deterministic (forward image error, LSRE, MSRE); tables 4-7
are the deblurring benchmarks, aggregated as medians over the seed list.
The full 20-seed run takes 3.3-5.1 s on two cores, 3.0-4.4 s of it in the
tables (three runs, numpy 2.4 with OpenBLAS); pass --seeds 0,1,2 for a quick
one.
"""
import argparse
import pathlib
import sys
import time

from graphtik.cli import parse_seeds
from graphtik.errors import ConfigurationError, ParameterError
from graphtik.experiments import TABLES, run_table
from graphtik.reporting import write_report_json, write_table_csv


def parse_tables(text: str | None) -> tuple:
    """A --tables value ("1,4,6") as integers; None or "" is every table.
    An item that is not an integer is a ParameterError naming it."""
    if not text:
        return tuple(TABLES)
    ids = []
    for item in text.split(","):
        try:
            ids.append(int(item))
        except ValueError:
            raise ParameterError(f"--tables item {item!r} is not an integer") from None
    return tuple(ids)


def main(argv=None) -> int:
    """Write each table's CSV and JSON; a bad --seeds or --tables value, or
    an unknown table id, prints ``error: <message>`` and returns 1."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="directory for table files")
    ap.add_argument("--seeds", default=None, help='comma separated, e.g. "0,1,2" (default 0..19)')
    ap.add_argument("--tables", default=None, help='subset to run, e.g. "1,4,6"')
    args = ap.parse_args(argv)

    try:
        seeds = parse_seeds(args.seeds)
        ids = parse_tables(args.tables)
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for tid in ids:
            t0 = time.time()
            report = run_table(tid, seeds)
            write_table_csv(str(out_dir / f"table{tid}.csv"), report)
            write_report_json(str(out_dir / f"table{tid}.json"), report)
            print(f"table {tid}: {len(report.cells)} cells in {time.time() - t0:.1f}s")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
