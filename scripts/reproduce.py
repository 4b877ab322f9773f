"""Write the paper's tables and figures as files under one directory.

    PYTHONPATH=src python scripts/reproduce.py [--out-dir DIR] [--seeds S] [NAME ...]

A NAME is table1-table7 or figure1-figure3.  Without a name every entry of
``experiments.TABLES`` and then of ``experiments.FIGURES`` is written; with
names, those entries, in the same catalogue order, tables first.  A table
writes tableN.csv and tableN.json, the bytes that ``graphtik table --id N
--seeds S`` writes to a .csv and a .json file; a figure writes figureN.csv
through ``graphtik figure --id N``.  Each prints its name and time.  The
seeds (default 0..19) are those of tables 4-7; each figure takes its
template's.

Every name and the seed list are checked before the first output runs.
Errors map as the CLI maps them: a bad name, a bad --seeds, an unknown flag
or an unwritable file prints one ``error:`` line (after the usage line for
a flag) and exits 1, and a numerical failure exits 2.  The full run at
the default seeds takes 3.0-3.2 s on two cores (three cold runs, numpy 2.4
with OpenBLAS); tables 2 and 3 and figure 1 share their spectra: 8 are
computed for 16 requests.
"""
import argparse
import pathlib
import sys
import time

from graphtik import cli
from graphtik.errors import NumericalFailure, ParameterError
from graphtik.experiments import FIGURES, TABLES, run_table
from graphtik.reporting import write_report_json, write_table_csv

CATALOGUE = {**{f"table{t}": ("table", t) for t in TABLES}, **{f"figure{f}": ("figure", f) for f in FIGURES}}


def main(argv=None) -> int:
    ap = cli._Parser(prog="reproduce.py", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", type=pathlib.Path, default="results", help="output directory (default results)")
    ap.add_argument("--seeds", help='comma separated, e.g. "0,1,2" (default 0..19)')
    ap.add_argument("names", nargs="*", metavar="NAME", help="table1..table7, figure1..figure3 (default all)")
    try:
        args = ap.parse_args(argv)
        seeds = cli.parse_seeds(args.seeds)
        for name in args.names:
            if name not in CATALOGUE:
                raise ParameterError(f"name must be one of {list(CATALOGUE)}, got {name!r}")
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for name, (kind, oid) in CATALOGUE.items():
            if args.names and name not in args.names:
                continue
            t0, path = time.time(), args.out_dir / f"{name}.csv"
            if kind == "table":
                report = run_table(oid, seeds)
                write_table_csv(str(path), report)
                write_report_json(str(path.with_suffix(".json")), report)
            elif code := cli.main(["figure", "--id", str(oid), "--out", str(path)]):
                return code
            print(f"{name}: {time.time() - t0:.1f}s")
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
