"""Output formats and the command line front end (exit codes, overrides)."""
import importlib.util
import json
import pathlib
import shlex
from dataclasses import replace

import numpy as np
import pytest

import graphtik.cli as cli
from graphtik import experiments
from graphtik.discretization import build_schrodinger_operator
from graphtik.errors import NumericalError, ParameterError
from graphtik.experiments import ExperimentConfig, continuous_spectrum, diagnostic_matrix, run_cell
from graphtik.problems import EXAMPLES
from graphtik.regularization import AlphaGrid
from graphtik.reporting import (
    ExperimentReport,
    FORMAT_VERSION,
    config_hash,
    format_float,
    report_to_json,
    write_csv,
)


def test_config_hash_canonical():
    a = config_hash({"n": 100, "example": 2})
    b = config_hash({"example": 2, "n": 100})
    assert a == b
    assert len(a) == 12 and int(a, 16) >= 0
    assert config_hash({"example": 1, "n": 100}) != a


def test_format_float():
    assert format_float(0.1234567891234) == "0.123456789"
    assert format_float(3) == "3"
    assert format_float("x") == "x"


def test_write_csv_layout(tmp_path):
    p = tmp_path / "out.csv"
    write_csv(str(p), ["a", "b"], [(1.0, 2.0), (0.5, np.pi)], "deadbeef0123", comments=["note"])
    lines = p.read_text().splitlines()
    assert lines[0] == f"# {FORMAT_VERSION}, config-hash=deadbeef0123"
    assert lines[1] == "# note"
    assert lines[2] == "a,b"
    assert lines[4] == "0.5,3.14159265"


def test_report_json_roundtrip():
    rep = ExperimentReport(config={"table": 4}, cells=[{"value": 1.0}])
    payload = json.loads(report_to_json(rep))
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["cells"] == [{"value": 1.0}]
    assert payload["roundtrip"] is None


def _first_line(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def test_cli_spectrum(tmp_path):
    out = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--example", "2", "--n", "30", "--method", "graph", "--out", str(out)])
    assert rc == 0
    assert _first_line(out).startswith(f"# {FORMAT_VERSION}, config-hash=")
    rows = out.read_text().splitlines()
    assert rows[1] == "m,discrete,continuous,lsre"
    assert len(rows) == 32
    first = rows[2].split(",")
    assert first[0] == "1" and float(first[3]) < 0.1


@pytest.mark.parametrize("method", ["graph", "galerkin"])
def test_cli_spectrum_odd_n_matches_full_eigvalsh(tmp_path, method):
    n = 101
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--example", "2", "--n", str(n), "--method", method, "--out", str(out)]) == 0
    got = np.array([[float(v) for v in r.split(",")] for r in out.read_text().splitlines()[2:]])
    if method == "graph":
        lam = np.abs(1.0 / np.linalg.eigvalsh(build_schrodinger_operator(EXAMPLES[2].problem.potential, n).matrix))
    else:
        lam = np.abs(np.linalg.eigvalsh(diagnostic_matrix(2, n, method).matrix))
    lam = np.sort(lam)[::-1]
    lam_true = continuous_spectrum(2, n)
    m = np.arange(1, n + 1)
    want = np.column_stack([m, lam, lam_true, np.abs(lam / lam_true - 1.0)])
    # rows are printed to 9 significant digits: half a unit is 5e-9 relative
    np.testing.assert_allclose(got, want, rtol=6e-9, atol=1e-9)


def test_cli_approx_error(tmp_path):
    out = tmp_path / "err.csv"
    rc = cli.main(["approx-error", "--example", "2", "--n", "25", "--f", "3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert [r.split(",")[0] for r in rows[2:]] == ["graph", "galerkin"]


def test_cli_deblur(tmp_path):
    out = tmp_path / "deblur.csv"
    rc = cli.main(
        ["deblur", "--example", "1", "--f", "1", "--n", "40", "--eps", "0",
         "--penalty", "identity", "--method", "graph", "--out", str(out)]
    )
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[1].startswith("# rre=") and rows[2].startswith("# alpha=")
    assert rows[3] == "x,f_true,f_restored"
    assert len(rows) == 44
    assert float(rows[1].split("=")[1]) < 1e-3
    data = np.array([[float(v) for v in r.split(",")] for r in rows[4:]])
    assert data[0, 0] == pytest.approx(1.0 / 41.0)
    assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-2


def _deblur_comments(tmp_path, *flags):
    out = tmp_path / "deblur.csv"
    base = ["deblur", "--example", "1", "--f", "3", "--n", "40", "--eps", "0.05", "--penalty", "a2"]
    assert cli.main(base + list(flags) + ["--out", str(out)]) == 0
    return out.read_text().splitlines()[1:3]


def test_cli_deblur_alpha_grid_flags(tmp_path):
    # a one-point grid holds only its max, so that is the chosen alpha
    assert _deblur_comments(tmp_path, "--alpha-count", "1", "--alpha-max", "5")[1] == "# alpha=5"


def test_cli_deblur_rejects_alpha_min_above_max(capsys):
    # the default max is 1e3, so this grid has max < min
    assert cli.main(["deblur", "--n", "40", "--alpha-min", "2000"]) == 1
    assert "max > min" in capsys.readouterr().err


def test_cli_deblur_seed_flag(tmp_path, capsys):
    cfg = ExperimentConfig(example=1, test_function=3, n=40, epsilon=0.05, penalty="a2")
    rre_line = _deblur_comments(tmp_path, "--seed", "3")[0]
    assert rre_line == f"# rre={run_cell(cfg, 3)[1]:.9g}"
    assert rre_line != f"# rre={run_cell(cfg, 0)[1]:.9g}"
    # a negative seed is a configuration error that names the field
    assert cli.main(["deblur", "--n", "10", "--eps", "0.01", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: config field 'seeds' must be a list of integers >= 0, got [-1]\n"


def test_cli_table_json(tmp_path):
    out = tmp_path / "table4.json"
    rc = cli.main(["table", "--id", "4", "--seeds", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["roundtrip"]["ok"] is True
    assert len(payload["cells"]) == 2


def test_cli_table_csv_stdout(capsys):
    rc = cli.main(["table", "--id", "4", "--seeds", "0"])
    assert rc == 0
    outerr = capsys.readouterr()
    lines = outerr.out.splitlines()
    assert lines[0].startswith(f"# {FORMAT_VERSION}")
    assert lines[1].split(",")[:4] == ["table", "f", "method", "penalty"]


def _script(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_table_script_writes_the_cli_csv(tmp_path):
    # scripts/run_all_tables.py and `graphtik table` share one row builder
    script = _script("run_all_tables")
    assert script.main(["--out-dir", str(tmp_path), "--tables", "4", "--seeds", "0"]) == 0
    assert cli.main(["table", "--id", "4", "--seeds", "0", "--out", str(tmp_path / "cli.csv")]) == 0
    text = (tmp_path / "table4.csv").read_text()
    assert text == (tmp_path / "cli.csv").read_text()
    assert text.splitlines()[1] == "table,f,method,penalty,metric,value,alpha_median,seeds_used"


def _bench_runs(workload, values):
    """Synthetic bench_pairs runs: values[side] lists one metric dict per pair."""
    return [
        {"workload": workload, "trace": 0, "pair": pair, "side": side, "record": {"setup_samples_s": []},
         "result": {"correct": True, "failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}}
        for side, per_pair in values.items() for pair, metrics in enumerate(per_pair)
    ]


def test_code_lines_counts_code_only(tmp_path, capsys):
    # blank lines, comments and the module, class and function docstrings
    # are not code; a string that is not a docstring, and each line of a
    # statement that spans lines, are
    source = (
        '"""Module\ndocstring."""\n'
        "# a comment\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, x):\n"
        '        """Function\n        docstring."""\n'
        "        y = (x +  # trailing comment\n"
        "             1)\n"
        '        "not a docstring"\n'
        "        return y\n"
    )
    script = _script("code_lines")
    assert script.code_lines(source) == 6
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["6", "a.py", "1", "b.py", "7", "total"]


def test_bench_pairs_states_gain_and_regression():
    script = _script("bench_pairs")
    better = {"cells_per_s": "higher", "peak_rss_mb": "lower"}
    bounds = {"cells_per_s": 0.25, "peak_rss_mb": 0.1}
    parent = [{"cells_per_s": 10.0 + 0.01 * i, "peak_rss_mb": 100.0 + 0.1 * i} for i in range(10)]
    # change: faster in 9 of 10 pairs and 2 MB lighter; heavier: as fast, 20% more memory
    change = [{"cells_per_s": 9.0 if i == 0 else 12.0, "peak_rss_mb": 98.0 + 0.1 * i} for i in range(10)]
    heavier = [{"cells_per_s": 10.0 + 0.01 * i, "peak_rss_mb": 120.0} for i in range(10)]
    runs = _bench_runs("a", {"parent": parent, "change": change})
    runs += _bench_runs("b", {"parent": parent, "change": heavier})
    runs += _bench_runs("c", {"parent": parent[:4], "change": change[1:5]})
    summary = script.summarize(runs, better, bounds)
    verdicts = {
        (w, m): (summary[w]["metrics"][m]["gain"], summary[w]["metrics"][m]["regressed"])
        for w in "abc" for m in better
    }
    assert verdicts == {
        ("a", "cells_per_s"): (True, False),
        ("a", "peak_rss_mb"): (True, False),
        ("b", "cells_per_s"): (False, False),  # ties win nothing
        ("b", "peak_rss_mb"): (False, True),
        ("c", "cells_per_s"): (False, False),  # won every pair, but only four
        ("c", "peak_rss_mb"): (False, False),
    }


def test_bench_pairs_prints_every_end_to_end_metric(tmp_path, capsys):
    # each checkout's perfbench/run.py prints an environment line and a result line
    bench = {"end_to_end": [{"name": n, "better": "lower", "bound": 0.25} for n in ("setup_s", "peak_rss_mb")],
             "per_layer": []}
    samples = {"parent": [1.7, 1.6, 1.9], "change": [1.3, 1.2, 1.1]}
    for side, setup in (("parent", 1.7), ("change", 1.2)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
        record = {"setup_samples_s": samples[side]}
        result = {"correct": True, "failed": 0, "metrics": {"setup_s": {"value": setup}}}
        (tmp_path / side / "perfbench" / "run.py").write_text(
            f"print({json.dumps(record)!r})\nprint({json.dumps(result)!r})\n"
        )
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--seeds", "0,1", "--out", str(out)]
    assert _script("bench_pairs").main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "w pair 0 seed 0 parent: setup_s=1.7 peak_rss_mb=None",
        "w pair 0 seed 0 change: setup_s=1.2 peak_rss_mb=None",
        "w pair 1 seed 1 change: setup_s=1.2 peak_rss_mb=None",
        "w pair 1 seed 1 parent: setup_s=1.7 peak_rss_mb=None",
    ]
    summary = json.loads(out.read_text())["summary"]["w"]
    assert summary["metrics"]["setup_s"]["change_wins"] == 2
    # every set-up sample of both runs of a side, pooled: 1.6, 1.6, 1.7, 1.7, 1.9, 1.9
    pooled = summary["setup_samples_s"]
    assert pooled["parent"] == pytest.approx({"median": 1.7, "q1": 1.625, "q3": 1.85, "n": 6})
    assert pooled["change"] == pytest.approx({"median": 1.2, "q1": 1.125, "q3": 1.275, "n": 6})


@pytest.mark.parametrize(
    "seeds,message",
    [
        ("", "need at least one seed"),
        ("0,1,0", "must not repeat"),
        pytest.param("1,,2", "--seeds item '' is not an integer", id="empty-item"),
        pytest.param("0,x", "--seeds item 'x' is not an integer", id="non-integer-item"),
        pytest.param("-1", "must be a list of integers >= 0", id="negative-seed"),
    ],
)
def test_table_seed_list_must_be_non_empty_and_distinct(tmp_path, capsys, seeds, message):
    # an empty --seeds is not the default list, and a repeated seed would
    # count twice in every median; every item is an integer >= 0
    assert cli.main(["table", "--id", "4", "--seeds", seeds]) == 1
    assert message in capsys.readouterr().err
    with pytest.raises(ParameterError, match=message):
        _script("run_all_tables").main(["--out-dir", str(tmp_path), "--tables", "4", "--seeds", seeds])
    assert list(tmp_path.iterdir()) == []


def test_cli_figure(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": 2, "n": 25}))
    out = tmp_path / "fig1.csv"
    rc = cli.main(["figure", "--id", "1", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "m_over_n,continuous,graph,galerkin"
    assert len(rows) == 27


def test_cli_figure_config_overlays_the_figure_template(tmp_path):
    # a config file changes only the fields it names: figure 2 keeps its
    # example 1, f1 and epsilon 0.01 at n = 40
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 40}))
    out = tmp_path / "fig2.csv"
    assert cli.main(["figure", "--id", "2", "--config", str(cfg), "--out", str(out)]) == 0
    config = replace(experiments.FIGURES[2].template, n=40)
    names, data = experiments.emit_figure_data(2, config)
    digest = config_hash({"command": "figure", "id": 2, "config": config.to_dict()})
    rows = [",".join(format_float(v) for v in row) for row in data]
    header = [f"# {FORMAT_VERSION}, config-hash={digest}", ",".join(names)]
    assert out.read_text().splitlines() == header + rows


def test_cli_figure_header_hashes_the_figure_template(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["figure", "--id", "2", "--out", str(out)]) == 0
    config = experiments.FIGURES[2].template
    assert _header_hash(out) == config_hash({"command": "figure", "id": 2, "config": config.to_dict()})


def test_figure_script_writes_the_cli_csv(tmp_path):
    script = _script("run_figures")
    assert script.main(["--out-dir", str(tmp_path), "--figures", "1"]) == 0
    assert cli.main(["figure", "--id", "1", "--out", str(tmp_path / "cli.csv")]) == 0
    text = (tmp_path / "figure1.csv").read_text()
    assert text == (tmp_path / "cli.csv").read_text()
    assert text.splitlines()[1] == "m_over_n,continuous,graph,galerkin"


def test_cli_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": 2, "n": 30, "method": "graph"}))
    out = tmp_path / "s.csv"
    rc = cli.main(["spectrum", "--config", str(cfg), "--n", "20", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 22  # flag wins over file


def test_cli_exit_code_bad_usage(capsys):
    assert cli.main(["spectrum", "--method", "fourier"]) == 1
    assert cli.main(["warp"]) == 1
    capsys.readouterr()


def test_cli_exit_code_bad_config(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["spectrum", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["spectrum", "--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"order": 3}))
    assert cli.main(["spectrum", "--config", str(unknown)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "raw", [{"n": "100"}, {"alpha_grid": 5}, {"seeds": [-1]}], ids=["string-n", "scalar-alpha-grid", "negative-seed"]
)
def test_cli_exit_code_mistyped_config(tmp_path, capsys, raw):
    # a configuration error (exit 1 with a message), not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["deblur", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: config field ")


@pytest.mark.parametrize(
    "raw,field",
    [
        ('{"epsilon": NaN}', "epsilon"),
        ('{"alpha_grid": {"max": Infinity}}', "alpha_grid max"),
        ('{"epsilon": 1%s}' % ("0" * 400), "epsilon"),
        ('{"alpha_grid": {"max": 1%s}}' % ("0" * 400), "alpha_grid max"),
        ('{"alpha_grid": {"max": 1e200}}', "alpha_grid max"),  # its square, the weight, overflows
    ],
    ids=[
        "nan-epsilon", "infinite-alpha-max", "overflowing-epsilon", "overflowing-alpha-max",
        "overflowing-alpha-max-squared",
    ],
)
def test_cli_exit_code_nonfinite_config(tmp_path, capsys, raw, field):
    # the error names the config field, not the data it would have spoiled;
    # an integer too large for a float is not finite either
    cfg = tmp_path / "cfg.json"
    cfg.write_text(raw)
    assert cli.main(["deblur", "--config", str(cfg)]) == 1
    assert field in capsys.readouterr().err


def test_cli_exit_code_bad_parameter(capsys):
    rc = cli.main(
        ["deblur", "--example", "1", "--f", "3", "--n", "40", "--eps", "0.1",
         "--penalty", "a3", "--sigma", "0"]
    )
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("penalty", ["a3", "matched"])
def test_cli_exit_code_underflowing_similarity_weights(capsys, penalty):
    # at sigma = 1e-10 every similarity weight of the n = 20 data is 0, so
    # the penalty would be the zero matrix and the restoration unregularized
    rc = cli.main(["deblur", "--n", "20", "--eps", "0.01", "--penalty", penalty, "--sigma", "1e-10"])
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


def test_cli_exit_code_numerical_failure(monkeypatch, capsys):
    def boom(cfg, seed=None):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(cli, "run_cell", boom)
    rc = cli.main(["deblur", "--example", "1", "--f", "3", "--n", "40", "--eps", "0"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_does_not_report_an_untyped_error_as_a_configuration_error(monkeypatch):
    # every input rule raises ParameterError, so a ValueError is a bug and
    # keeps its traceback
    def bug(cfg, seed=None):
        raise ValueError("synthetic bug")

    monkeypatch.setattr(cli, "run_cell", bug)
    with pytest.raises(ValueError, match="synthetic bug"):
        cli.main(["deblur", "--n", "10"])


def test_cli_overflowing_restoration_error_exits_2(capsys):
    # at epsilon 1e300 every column's restoration error overflows
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["deblur", "--n", "10", "--eps", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: the restoration error overflows at every grid alpha\n"
    assert captured.out == ""


def _header_hash(path):
    return _first_line(path).split("config-hash=")[1]


# each deblur flag, a value for it and the config entries it must set
_DEBLUR_FLAGS = [
    ("--example", "1", {"example": 1}),
    ("--f", "2", {"test_function": 2}),
    ("--n", "30", {"n": 30}),
    ("--eps", "0.01", {"epsilon": 0.01}),
    ("--method", "galerkin", {"method": "galerkin"}),
    ("--penalty", "a1", {"penalty": "a1"}),
    ("--r-frac", "0.3", {"r_fraction": 0.3}),
    ("--sigma", "0.02", {"sigma": 0.02}),
    ("--seed", "4", {"seeds": [4]}),
    ("--alpha-max", "100", {"alpha_grid": {"max": 100.0}}),
    ("--alpha-min", "1e-4", {"alpha_grid": {"min": 1e-4}}),
    ("--alpha-count", "7", {"alpha_grid": {"count": 7}}),
]


@pytest.mark.parametrize("flag,value,field", _DEBLUR_FLAGS, ids=[flag for flag, _, _ in _DEBLUR_FLAGS])
def test_cli_deblur_flag_sets_its_config_field(tmp_path, flag, value, field):
    out = tmp_path / "deblur.csv"
    assert cli.main(["deblur", flag, value, "--out", str(out)]) == 0
    assert _header_hash(out) == config_hash(ExperimentConfig.from_dict(field).to_dict())


def test_cli_alpha_flags_overlay_the_config_file_grid(tmp_path):
    # the file's n gives way to --n; its grid max stays beside --alpha-min
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 30, "alpha_grid": {"max": 10}}))
    out = tmp_path / "deblur.csv"
    argv = ["deblur", "--config", str(cfg), "--n", "40", "--alpha-min", "0.01", "--out", str(out)]
    assert cli.main(argv) == 0
    want = replace(ExperimentConfig(), n=40, alpha_grid=AlphaGrid(10.0, 0.01, 50))
    assert _header_hash(out) == config_hash(want.to_dict())
    assert len(out.read_text().splitlines()) == 4 + 40


def _readme_commands():
    """The `graphtik ...` lines of the README's "Command line" synopsis, with
    continuations joined and the brackets of optional flags dropped."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    synopsis = section.split("```\ngraphtik ", 1)[1].split("```", 1)[0]
    lines = ("graphtik " + synopsis).replace("\\\n", " ").splitlines()
    return [shlex.split(line.replace("[", "").replace("]", ""))[1:] for line in lines if line.strip()]


def test_readme_command_line_synopsis_parses():
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == ["spectrum", "approx-error", "deblur", "table", "figure"]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
