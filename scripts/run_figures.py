"""Emit the data behind the three benchmark figures as CSV files.

Figure 1 compares the reciprocal scaled spectra of both discretizations
with the continuous operator; figures 2 and 3 show one noisy restoration
per (method, penalty) pair for the two benchmark kernels.  Each file is
written by `graphtik figure --id <id> --out <file>`, whose exit code a failure
returns.
"""
import argparse
import pathlib
import sys

from graphtik import cli
from graphtik.experiments import FIGURES


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="directory for figure files")
    ap.add_argument("--figures", default=None, help='subset to run, e.g. "1,3"')
    args = ap.parse_args(argv)

    ids = tuple(int(f) for f in args.figures.split(",")) if args.figures else tuple(FIGURES)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for fid in ids:
        path = out_dir / f"figure{fid}.csv"
        code = cli.main(["figure", "--id", str(fid), "--out", str(path)])
        if code:
            return code
        print(f"figure {fid} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
