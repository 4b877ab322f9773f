"""Command line interface.

Subcommands: spectrum, approx-error, deblur, table, figure.  Results go to
--out as CSV (or JSON for reports when the filename ends in .json), stdout
otherwise.  A JSON config file mirroring the ExperimentConfig fields can
seed any subcommand; explicit flags win over file values.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .discretization import Grid
from .errors import ConfigurationError, NumericalFailure
from .experiments import (
    FIGURES,
    TABLES,
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
        raise ConfigurationError(message)


def _load_config(path, template: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    """The config file's fields over the template's."""
    if path is None:
        return template
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    return ExperimentConfig.from_dict(raw, template)


def _merge(base: ExperimentConfig, args, mapping: dict) -> ExperimentConfig:
    """Overlay explicitly given flags (non-None) onto the base config."""
    updates = {}
    for flag, fieldname in mapping.items():
        val = getattr(args, flag, None)
        if val is None:
            continue
        if fieldname == "seeds":
            val = (int(val),)
        updates[fieldname] = val
    grid_updates = {}
    for flag, key in (("alpha_max", "max"), ("alpha_min", "min"), ("alpha_count", "count")):
        val = getattr(args, flag, None)
        if val is not None:
            grid_updates[key] = val
    if grid_updates:
        updates["alpha_grid"] = replace(base.alpha_grid, **grid_updates)
    return replace(base, **updates).validate()


def _cmd_spectrum(args) -> int:
    cfg = _merge(
        _load_config(args.config),
        args,
        {"example": "example", "n": "n", "method": "method"},
    )
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
    cfg = _merge(
        _load_config(args.config),
        args,
        {"example": "example", "n": "n", "f": "test_function"},
    )
    rows = [
        (method, cfg.n, cfg.test_function, forward_image_error(cfg.example, cfg.n, cfg.test_function, method))
        for method in ("graph", "galerkin")
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
    cfg = _merge(
        _load_config(args.config),
        args,
        {
            "example": "example",
            "f": "test_function",
            "n": "n",
            "eps": "epsilon",
            "method": "method",
            "penalty": "penalty",
            "r_frac": "r_fraction",
            "sigma": "sigma",
            "seed": "seeds",
        },
    )
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
    """A --seeds value ("0,1,2") as integers; None is seeds 0..19."""
    if text is None:
        return tuple(range(20))
    # "" is an empty list, which run_table rejects like a repeated seed
    return tuple(int(s) for s in text.split(",")) if text else ()


def _cmd_table(args) -> int:
    report = run_table(args.id, parse_seeds(args.seeds))
    if args.out and str(args.out).endswith(".json"):
        write_report_json(args.out, report)
        return 0
    write_table_csv(args.out, report)
    return 0


def _cmd_figure(args) -> int:
    base = _load_config(args.config, FIGURES[args.id].template) if args.config else None
    names, data = emit_figure_data(args.id, base)
    meta = {"command": "figure", "id": args.id}
    if base is not None:
        meta["config"] = base.to_dict()
    write_csv(args.out, names, [tuple(r) for r in data], config_hash(meta))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="graphtik", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of one discretization vs the continuous law")
    sp.add_argument("--example", type=int, choices=(1, 2))
    sp.add_argument("--n", type=int)
    sp.add_argument("--method", choices=("graph", "galerkin"))
    sp.add_argument("--config")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_spectrum)

    ap = sub.add_parser("approx-error", help="sup-norm forward-image error for a test function")
    ap.add_argument("--example", type=int, choices=(1, 2))
    ap.add_argument("--n", type=int)
    ap.add_argument("--f", type=int, choices=(1, 2, 3, 4))
    ap.add_argument("--config")
    ap.add_argument("--out")
    ap.set_defaults(func=_cmd_approx_error)

    dp = sub.add_parser("deblur", help="restore one signal from noisy blurred data")
    dp.add_argument("--example", type=int, choices=(1, 2))
    dp.add_argument("--f", type=int, choices=(1, 2, 3, 4))
    dp.add_argument("--n", type=int)
    dp.add_argument("--eps", type=float)
    dp.add_argument("--method", choices=("graph", "galerkin"))
    dp.add_argument("--penalty", choices=("identity", "a1", "a2", "a3", "matched"))
    dp.add_argument("--r-frac", dest="r_frac", type=float)
    dp.add_argument("--sigma", type=float)
    dp.add_argument("--alpha-max", dest="alpha_max", type=float)
    dp.add_argument("--alpha-min", dest="alpha_min", type=float)
    dp.add_argument("--alpha-count", dest="alpha_count", type=int)
    dp.add_argument("--seed", type=int)
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
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
