"""Command line interface.

Subcommands: spectrum, approx-error, deblur, table, figure.  Results go to
--out as CSV (or JSON for reports when the filename ends in .json), stdout
otherwise.  Every subcommand but table takes a JSON config file mirroring
the ExperimentConfig fields (--config); explicit flags win over file values,
and each --alpha-* flag sets one entry of the file's alpha_grid.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .discretization import Grid
from .errors import NumericalFailure, ParameterError
from .experiments import (
    FIGURES,
    TABLES,
    _DEFAULT_SEEDS,
    _METHODS,
    ExperimentConfig,
    discrete_spectrum,
    continuous_spectrum,
    emit_figure_data,
    forward_image_error,
    run_cell,
    run_table,
)
from .metrics import lsre
from .problems import get_test_function
from .reporting import config_hash, write_csv, write_report_json, write_table_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad flags are invalid config here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _config(args, template: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    """The --config file's fields over the template's, then the given flags
    over those; each --alpha-* flag sets one entry of the resulting grid.
    Every subcommand that reads a file makes one output from one seed, so a
    file that names more than one seed is refused."""
    config = template
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        config = ExperimentConfig.from_dict(raw, config)
        if len(config.seeds) > 1:
            raise ParameterError(f"a config file names one seed, got {list(config.seeds)}")
    given = {k: v for k, v in vars(args).items() if v is not None}
    flags = {f.name: given[f.name] for f in fields(ExperimentConfig) if f.name in given}
    grid = {key: given[f"alpha_{key}"] for key in ("max", "min", "count") if f"alpha_{key}" in given}
    if grid:
        flags["alpha_grid"] = {**asdict(config.alpha_grid), **grid}
    return ExperimentConfig.from_dict(flags, config)


def _cmd_spectrum(args) -> int:
    cfg = _config(args)
    lam_hat = discrete_spectrum(cfg.example, cfg.n, cfg.method)
    lam = continuous_spectrum(cfg.example, cfg.n)
    rows = [
        (m, lam_hat[m - 1], lam[m - 1], lsre(lam_hat, lam, m))
        for m in range(1, cfg.n + 1)
    ]
    meta = {"command": "spectrum", "example": cfg.example, "n": cfg.n, "method": cfg.method}
    write_csv(args.out, ["m", "discrete", "continuous", "lsre"], rows, config_hash(meta))
    return 0


def _cmd_approx_error(args) -> int:
    cfg = _config(args)
    rows = [
        (method, cfg.n, cfg.test_function, forward_image_error(cfg.example, cfg.n, cfg.test_function, method))
        for method in _METHODS
    ]
    meta = {
        "command": "approx-error",
        "example": cfg.example,
        "n": cfg.n,
        "f": cfg.test_function,
    }
    write_csv(args.out, ["method", "n", "f", "max_abs_error"], rows, config_hash(meta))
    return 0


def _cmd_deblur(args) -> int:
    cfg = _config(args)
    sol, err = run_cell(cfg)
    x = Grid(cfg.n, "interior").nodes
    f_true = get_test_function(cfg.test_function).eval(x)
    restored = np.asarray(sol.solution) * np.sqrt(cfg.n)
    rows = list(zip(x, f_true, restored))
    write_csv(
        args.out,
        ["x", "f_true", "f_restored"],
        rows,
        config_hash(cfg.to_dict()),
        comments=[f"rre={err:.9g}", f"alpha={sol.alpha:.9g}"],
    )
    return 0


def parse_seeds(text: str | None) -> tuple:
    """A --seeds value ("0,1,2") as integers; None is seeds 0..19.  An item
    that is not an integer is a ParameterError naming it, and the list
    passes the config's seed rules, as run_table checks them, so that a
    caller can refuse it before any table runs."""
    if text is None:
        return _DEFAULT_SEEDS
    seeds = []
    # "" is an empty list, which the config rejects like a repeated seed
    for item in text.split(",") if text else ():
        try:
            seeds.append(int(item))
        except ValueError:
            raise ParameterError(f"--seeds item {item!r} is not an integer") from None
    return ExperimentConfig(seeds=tuple(seeds)).seeds


def _cmd_table(args) -> int:
    report = run_table(args.id, parse_seeds(args.seeds))
    if args.out and str(args.out).endswith(".json"):
        write_report_json(args.out, report)
        return 0
    write_table_csv(args.out, report)
    return 0


def _cmd_figure(args) -> int:
    config = _config(args, FIGURES[args.id].template)
    names, data = emit_figure_data(args.id, config)
    meta = {"command": "figure", "id": args.id, "config": config.to_dict()}
    write_csv(args.out, names, [tuple(r) for r in data], config_hash(meta))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="graphtik", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of one discretization vs the continuous law")
    sp.add_argument("--example", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--method")
    sp.add_argument("--config")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_spectrum)

    ap = sub.add_parser("approx-error", help="sup-norm forward-image error for a test function")
    ap.add_argument("--example", type=int)
    ap.add_argument("--n", type=int)
    ap.add_argument("--f", dest="test_function", type=int)
    ap.add_argument("--config")
    ap.add_argument("--out")
    ap.set_defaults(func=_cmd_approx_error)

    # a config flag's dest is the field it sets; --seed gives a one-seed list
    dp = sub.add_parser("deblur", help="restore one signal from noisy blurred data")
    dp.add_argument("--example", type=int)
    dp.add_argument("--f", dest="test_function", type=int)
    dp.add_argument("--n", type=int)
    dp.add_argument("--eps", dest="epsilon", type=float)
    dp.add_argument("--method")
    dp.add_argument("--penalty")
    dp.add_argument("--r-frac", dest="r_fraction", type=float)
    dp.add_argument("--sigma", type=float)
    dp.add_argument("--alpha-max", type=float)
    dp.add_argument("--alpha-min", type=float)
    dp.add_argument("--alpha-count", type=int)
    dp.add_argument("--seed", dest="seeds", type=int, nargs=1)
    dp.add_argument("--config")
    dp.add_argument("--out")
    dp.set_defaults(func=_cmd_deblur)

    tp = sub.add_parser("table", help="reproduce one benchmark table")
    tp.add_argument("--id", type=int, required=True, choices=tuple(TABLES))
    tp.add_argument("--seeds", help='comma separated, e.g. "0,1,2"')
    tp.add_argument("--out")
    tp.set_defaults(func=_cmd_table)

    fp = sub.add_parser("figure", help="emit the data behind one benchmark figure")
    fp.add_argument("--id", type=int, required=True, choices=tuple(FIGURES))
    fp.add_argument("--config")
    fp.add_argument("--out")
    fp.set_defaults(func=_cmd_figure)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
