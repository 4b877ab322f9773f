"""Report containers and CSV/JSON emission.

Every emitted file starts with the line
    # graphtik v1, config-hash=<hex>
where the hash is over the canonical JSON encoding of the generating
configuration, so outputs can be traced back to their exact inputs.
Floats are printed with 9 significant digits.
"""
from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

FORMAT_VERSION = "graphtik v1"


def config_hash(config: dict) -> str:
    """First 12 hex chars of sha256 over sorted-key JSON."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def format_float(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


@dataclass
class ExperimentReport:
    """Cells plus enough context to regenerate them."""

    config: dict
    cells: list
    roundtrip: dict | None = None


@contextmanager
def _output(path):
    """stdout for no path or "-", else the file, opened for writing and
    closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w") as out:
        yield out


def write_csv(path, header: list, rows: list, cfg_hash: str, comments: list = ()):
    """rows are sequences; floats get 9 significant digits."""
    with _output(path) as out:
        out.write(f"# {FORMAT_VERSION}, config-hash={cfg_hash}\n")
        for c in comments:
            out.write(f"# {c}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(format_float(v) for v in row) + "\n")


# column order of table CSVs; columns that no cell has are left out
_TABLE_COLUMNS = (
    "table",
    "f",
    "method",
    "penalty",
    "n",
    "m",
    "metric",
    "value",
    "alpha_median",
    "seeds_used",
    "error",
)


def write_table_csv(path, report: ExperimentReport):
    """One row per cell of a table report, under its config-hash header."""
    keys = [k for k in _TABLE_COLUMNS if any(k in c for c in report.cells)]
    rows = [[c.get(k, "") for k in keys] for c in report.cells]
    write_csv(path, keys, rows, config_hash(report.config))


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "config_hash": config_hash(report.config),
        "config": report.config,
        "cells": report.cells,
        "roundtrip": report.roundtrip,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_report_json(path, report: ExperimentReport):
    with _output(path) as out:
        out.write(report_to_json(report) + "\n")
