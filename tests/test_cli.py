"""Tests for the command-line front end: datasets, manifests, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import nlaphase
from nlaphase import NlaParams, __version__, branch_breakdown, cli, fisher, fock, heralding_probabilities
from nlaphase.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(*argv):
    return main([str(a) for a in argv])


def edited_fraction_manifest(tmp_path, edit):
    """Write a small fraction dataset, apply edit to its manifest, return the edited copy."""
    assert run("fraction", "--m", 20, "--output", tmp_path / "fraction.csv") == 0
    manifest = json.loads((tmp_path / "fraction.csv.manifest.json").read_text())
    edit(manifest)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    return edited


def indented_json(rows):
    """The dataset as json.dump(indent=2) writes it with the pure-Python encoder, plus a newline."""
    buf = io.StringIO()
    json.dump(rows, buf, indent=2)
    return buf.getvalue() + "\n"


def dict_writer_csv(rows):
    """The dataset as csv.DictWriter writes it, header first."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def rows_of(table):
    """The rows of a column table (name -> list or numpy array), values as Python scalars."""
    columns = [v.tolist() if isinstance(v, np.ndarray) else v for v in table.values()]
    assert len({len(v) for v in columns}) == 1, "columns of unequal length"
    return [dict(zip(table, row)) for row in zip(*columns)]


def table_of(rows, names):
    """The column table of rows, as a runner returns it."""
    return {name: [row[name] for row in rows] for name in names}


def captured_rows(monkeypatch, command):
    """A list that receives what the command's runner hands to the writer, as rows.

    A column table is transposed into its rows; the one-object cost report stays a dict.
    """
    runner, produced = cli._RUNNERS[command], []

    def recorded(params):
        result = runner(params)
        produced.append(result if command == "cost" else rows_of(result))
        return result

    monkeypatch.setitem(cli._RUNNERS, command, recorded)
    return produced


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test oracle only
    code = "import nlaphase.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nlaphase.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


BATCH = cli._ROWS_PER_BATCH  # rows per rendered batch in the writer

SPECIAL_ROW = {
    "count": 7,
    "value": 0.1,
    "flag": True,
    "tiny": 5e-324,
    "missing": float("nan"),
    "low": -math.inf,
    "none": None,
    "text": 'a,\n    "b": c',  # the row template's item separator, inside a string
}
SPECIAL_OTHER = {**SPECIAL_ROW, "count": -1, "flag": False, "value": math.inf}

# every command, with the --r 0 NaN norms and a 1e200 gain
COMMAND_CASES = [
    ("probabilities", ["--gains", "1,2,1e200", "--n0-list", "1,2"]),
    ("probabilities", ["--r", 0, "--gains", "1,2", "--n0-list", "2"]),
    ("fisher-sweep", ["--gains", "1,2", "--n0-list", "1,2"]),
    ("fisher-sweep", ["--r", 0, "--gains", "1,2", "--n0-list", "2"]),
    ("fraction", ["--m", 50, "--gain", 1.5]),
    ("fraction", ["--r", 0, "--m", 30]),
    ("simulate", ["--gains", "1,2", "--n0-list", "2", "--m", 20, "--runs", 500]),
    ("cost", ["--y", 50, "--r", 0.3]),
    ("cost", ["--gain", 1]),  # no break-even: None
]
COMMAND_IDS = ["probabilities", "probabilities-r0", "fisher-sweep", "fisher-sweep-r0", "fraction",
               "fraction-r0", "simulate", "cost", "cost-no-breakeven"]


class TestJsonBytes:
    """The streamed JSON writer gives the bytes of json.dump(indent=2), row for row."""

    @pytest.mark.parametrize(
        "command, args",
        [
            ("probabilities", ["--gains", "1,2,1e200", "--n0-list", "1,2"]),
            ("fisher-sweep", ["--gains", "1,2", "--n0-list", "1,2"]),
            ("fisher-sweep", ["--r", 0, "--gains", "1,2", "--n0-list", "2"]),  # NaN norms
            ("fraction", ["--m", 50, "--gain", 1.5]),
            ("fraction", ["--r", 0, "--m", 30]),  # NaN norms
            ("simulate", ["--gains", "1,2", "--n0-list", "2", "--m", 20, "--runs", 500]),
            ("cost", ["--y", 50, "--r", 0.3]),
        ],
        ids=["probabilities", "fisher-sweep", "fisher-sweep-r0", "fraction", "fraction-r0",
             "simulate", "cost"],
    )
    def test_file_matches_indented_dump(self, tmp_path, monkeypatch, command, args):
        produced = captured_rows(monkeypatch, command)
        out = tmp_path / "data.json"
        assert run(command, *args, "--format", "json", "--output", out) == 0
        assert out.read_text() == indented_json(produced[0])

    def test_cost_report_on_stdout(self, monkeypatch, capsys):
        # gain 1 has no break-even: the report holds a None beside its string
        produced = captured_rows(monkeypatch, "cost")
        assert run("cost", "--gain", 1) == 0
        assert produced[0]["breakeven_y"] is None and isinstance(produced[0]["recommendation"], str)
        assert capsys.readouterr().out == indented_json(produced[0])

    def test_special_values(self, tmp_path):
        out = tmp_path / "rows.json"
        for rows in ([SPECIAL_ROW, SPECIAL_OTHER], [SPECIAL_ROW], []):
            cli._write_rows(out, "json", table_of(rows, SPECIAL_ROW))
            assert out.read_text() == indented_json(rows)
        cli._write_rows(out, "json", table_of([SPECIAL_ROW], SPECIAL_ROW), one_object=True)
        assert out.read_text() == indented_json(SPECIAL_ROW)

    def test_numpy_columns(self, tmp_path):
        # float64 columns with and without non-finite values, int64 and bool columns
        table = {
            "n": np.arange(-2, 3),
            "x": np.array([0.1, 1e200, 5e-324, -0.0, 2.0]),
            "y": np.array([np.nan, np.inf, -np.inf, 1.5, -1e-300]),
            "b": np.array([True, False, True, True, False]),
        }
        out = tmp_path / "rows.json"
        cli._write_rows(out, "json", table)
        assert out.read_text() == indented_json(rows_of(table))

    @pytest.mark.parametrize(
        "count", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1],
        ids=["0", "1", "B-1", "B", "B+1", "2B+1"],
    )
    def test_row_counts_around_the_batch_size(self, tmp_path, count):
        # a string holds a row boundary of the JSON text; numpy and list columns mix
        rows = [
            {"n": i, "value": i / 7, "text": '"},\n    {"' if i % 2 else "}, {", "flag": i % 3 == 0}
            for i in range(count)
        ]
        table = {**table_of(rows, ["n", "value", "text", "flag"]), "value": np.arange(count) / 7}
        out = tmp_path / "rows.json"
        cli._write_rows(out, "json", table)
        assert out.read_text() == indented_json(rows)
        if rows:
            cli._write_rows(out, "csv", table)
            assert out.read_bytes() == dict_writer_csv(rows)

    @pytest.mark.parametrize("command, args", COMMAND_CASES, ids=COMMAND_IDS)
    def test_runners_return_python_scalars(self, tmp_path, monkeypatch, command, args):
        # the writers take list columns and the manifest takes parameters as they are,
        # so no numpy scalar may reach them (numpy arrays go through tolist); simulate
        # and cost refuse r = 0
        produced = captured_rows(monkeypatch, command)
        assert run(command, *args, "--output", tmp_path / "data.out") == 0
        rows = produced[0] if isinstance(produced[0], list) else [produced[0]]
        for row in rows:
            for key, value in row.items():
                assert type(value) in (int, float, str, bool, type(None)), (key, type(value))


class TestCsvBytes:
    """The CSV writer gives the bytes of csv.DictWriter over the rows."""

    @pytest.mark.parametrize("command, args", COMMAND_CASES, ids=COMMAND_IDS)
    def test_file_matches_dict_writer(self, tmp_path, monkeypatch, command, args):
        produced = captured_rows(monkeypatch, command)
        out = tmp_path / "data.csv"
        assert run(command, *args, "--format", "csv", "--output", out) == 0
        rows = produced[0] if isinstance(produced[0], list) else [produced[0]]
        assert out.read_bytes() == dict_writer_csv(rows)

    def test_special_values(self, tmp_path):
        out = tmp_path / "rows.csv"
        for rows in ([SPECIAL_ROW, SPECIAL_OTHER], [SPECIAL_ROW]):
            cli._write_rows(out, "csv", table_of(rows, SPECIAL_ROW))
            assert out.read_bytes() == dict_writer_csv(rows)
        cli._write_rows(out, "csv", table_of([SPECIAL_ROW], SPECIAL_ROW), one_object=True)
        assert out.read_bytes() == dict_writer_csv([SPECIAL_ROW])


class TestProbabilities:
    def test_rows_and_values(self, tmp_path):
        out = tmp_path / "probs.csv"
        assert run("probabilities", "--r", 0.25, "--n0-list", "1,2", "--gains", "1,2,4",
                   "--output", out) == 0
        rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row["p_s"]) + float(row["p_f"]) - 1.0) < 1e-12
            if float(row["gain"]) == 1.0:
                assert float(row["p_s"]) == 1.0
        paper = [r for r in rows if float(r["gain"]) == 2.0 and r["n0"] == "2"][0]
        assert float(paper["p_s"]) == pytest.approx(0.075265, abs=1e-5)

    def test_float_round_trip(self, tmp_path):
        out = tmp_path / "probs.csv"
        run("probabilities", "--r", 0.25, "--n0-list", "2", "--gains", "2", "--output", out)
        row = read_csv(out)[0]
        # shortest-repr text parses back to the exact double
        assert (float(row["p_s"]), float(row["p_f"])) == heralding_probabilities(0.25, NlaParams(2.0, 2))

    def test_no_amplitude_limit(self, tmp_path):
        # a head term r^{2n}/n! overflows here while e^{-r^2} is 0.0
        out = tmp_path / "probs.csv"
        assert run("probabilities", "--r", "1e80", "--n0-list", "2", "--gains", "2",
                   "--output", out) == 0
        assert out.read_text().splitlines()[1] == "2.0,2,1.0,0.0"

    def test_gain_too_large_to_square(self, tmp_path):
        out = tmp_path / "probs.csv"
        assert run("probabilities", "--r", 0.5, "--gains", "1e200", "--n0-list", 2,
                   "--output", out) == 0
        row = read_csv(out)[0]
        assert float(row["p_s"]) == pytest.approx(0.0264990211607439147, rel=1e-14)


class TestFisherSweep:
    def test_success_probability_below_the_loop_threshold(self, tmp_path):
        # p_s = 1.7687e-16 here, where the running-term loop's 1 - e^{-r^2} * sum gives
        # 0.0, which no success state can be normalized by
        out = tmp_path / "fisher.csv"
        assert run("fisher-sweep", "--r", 0.1, "--gains", 16, "--n0-list", 7, "--output", out) == 0
        row = read_csv(out)[0]
        assert float(row["p_s"]) == pytest.approx(1.7687007647144885e-16, rel=1e-13)

    def test_normalized_columns(self, tmp_path):
        out = tmp_path / "fisher.csv"
        assert run("fisher-sweep", "--r", 0.25, "--n0-list", "1,2", "--gains", "1,1.5,2",
                   "--output", out) == 0
        for row in read_csv(out):
            assert float(row["j_ideal_norm"]) == pytest.approx(float(row["gain"]) ** 2, abs=1e-12)
            assert float(row["j_nla_asymptotic_norm"]) <= 1.0 + 1e-12
            if float(row["gain"]) == 1.0:
                assert float(row["j_s_norm"]) == pytest.approx(1.0, abs=1e-9)
                assert float(row["pf_jf"]) == 0.0


class TestFraction:
    def test_paper_markers(self, tmp_path):
        out = tmp_path / "fraction.csv"
        assert run("fraction", "--m", 1000, "--r", 0.25, "--gain", 2, "--n0", 2,
                   "--output", out) == 0
        rows = read_csv(out)
        assert len(rows) == 1001
        crossing = [r for r in rows if r["is_crossing"] == "1"]
        assert len(crossing) == 1 and int(crossing[0]["n_s"]) == 90
        assert float(crossing[0]["p_ns_or_more"]) == pytest.approx(0.0468, abs=0.0005)
        marked = [r for r in rows if r["is_most_likely"] == "1"][0]
        assert float(marked["j_nla_norm"]) < 1.0


    @pytest.mark.parametrize("m", [1, 2, 50, 10000, 100000])
    def test_tails_match_binomial_tail_on_every_row(self, monkeypatch, m):
        # run_fraction makes one binomial_tail call over the whole column, through
        # fisher's module-global name; each row must be the double that a scalar
        # call at its n_s gives
        paper = branch_breakdown(0.25, NlaParams(2.0, 2))
        tail, calls = fisher.binomial_tail, []

        def recorded(m, p, k):
            calls.append(k)
            return tail(m, p, k)

        monkeypatch.setattr(fisher, "binomial_tail", recorded)
        params = {"m": m, "r": 0.25, "gain": 2.0, "n0": 2, "seed": 4}
        for p in (1e-300, 1e-6, 0.5, 1.0 - 1e-9, 1.0, paper.p_s):
            calls.clear()
            monkeypatch.setattr(cli, "branch_breakdown", lambda r, params: replace(paper, p_s=p))
            got = cli.run_fraction(params)["p_ns_or_more"].tolist()
            assert len(calls) == 1
            assert calls[0].dtype.kind == "i" and calls[0].tolist() == list(range(m + 1))
            want = [tail(m, p, k) for k in range(m + 1)]
            assert [v.hex() for v in got] == [v.hex() for v in want], p


class TestSimulate:
    def test_identity_point_and_ordering(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--gains", "1,2,3", "--n0-list", "1", "--runs", 5000,
                   "--seed", 99, "--output", out) == 0
        rows = read_csv(out)
        g1 = [r for r in rows if float(r["gain"]) == 1.0][0]
        spread = math.hypot(float(g1["stderr_direct"]), float(g1["stderr_nla"]))
        assert abs(float(g1["precision_nla"]) - float(g1["precision_direct"])) < 3 * spread
        for row in rows:
            if float(row["gain"]) > 1.0:
                assert float(row["precision_nla"]) < float(row["precision_direct"])

    def test_seed_changes_dataset(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--gains", "2", "--n0-list", "2", "--runs", 2000, "--seed", 1, "--output", a)
        run("simulate", "--gains", "2", "--n0-list", "2", "--runs", 2000, "--seed", 2, "--output", b)
        assert a.read_bytes() != b.read_bytes()

    def test_large_r_bytes(self, tmp_path):
        # a 17292-level cutoff at g = 8, far past the input's run, which the branch
        # states stop at; the sha256 of the bytes written with numpy 2.4.6, on one CPU
        # or two, one OpenBLAS thread or the default count
        out = tmp_path / "large-r.csv"
        assert run("simulate", "--r", 16, "--gains", "2,8", "--n0-list", "1,2", "--m", 20,
                   "--runs", 200, "--seed", 4, "--output", out) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "e4f1cd170cbeb3ebee3434c7c7613d77e3da8d9a4958960df3328d29f8db7e9b"

    def test_r30_bytes(self, tmp_path):
        # no failure state at r = 30 (p_f is 0.0), and n0 = 4 above n0 = 1; recorded
        # as test_large_r_bytes is
        out = tmp_path / "r30.csv"
        assert run("simulate", "--r", 30, "--gains", "2,8", "--n0-list", "1,4", "--m", 20,
                   "--runs", 100, "--seed", 9, "--output", out) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "a49256b6b72e1d8de08944c886ddf754da30d2fd9d58e83bce49697bdb9d4a60"

    @pytest.mark.parametrize("value", ["numba", "cuda"])
    def test_backend_variable_selects_nothing(self, tmp_path, monkeypatch, value):
        # there is one sampling kernel, and no environment variable chooses it
        args = ["simulate", "--gains", "1,2", "--n0-list", "2", "--m", 50, "--runs", 300, "--seed", 3]
        assert run(*args, "--output", tmp_path / "plain.csv") == 0
        monkeypatch.setenv("NLAPHASE_BACKEND", value)
        assert run(*args, "--output", tmp_path / "set.csv") == 0
        assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestCost:
    def test_report_values(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        assert run("cost", "--x", 1, "--y", 0, "--z", 1, "--epsilon", 1,
                   "--r", 0.25, "--gain", 2, "--n0", 2, "--output", out) == 0
        report = json.loads(out.read_text())
        assert report["recommendation"] == "direct"  # free measurements: never abstain
        assert report["cost_direct"] == pytest.approx(1.0 / 0.25, rel=1e-12)

    def test_stdout_when_no_output(self, capsys):
        assert run("cost", "--y", "50") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recommendation"] == "postselect"

    def test_epsilon_scaling_keeps_recommendation(self, capsys):
        run("cost", "--y", 50, "--epsilon", 1)
        first = json.loads(capsys.readouterr().out)
        run("cost", "--y", 50, "--epsilon", 100)
        second = json.loads(capsys.readouterr().out)
        assert first["recommendation"] == second["recommendation"]

    def test_strict_no_breakeven_exits_4(self, tmp_path, capsys):
        # gain 1 leaves j_s = j_alpha, so no break-even exists
        assert run("cost", "--gain", 1, "--strict") == 4
        assert run("cost", "--gain", 1) == 0
        capsys.readouterr()
        out = tmp_path / "cost.json"
        manifest = tmp_path / "cost.json.manifest.json"
        assert run("cost", "--gain", 1, "--strict", "--output", out) == 4
        assert capsys.readouterr().err == (
            "numerical degeneracy: no break-even cost; post-selection cannot win\n"
        )
        assert not out.exists() and not manifest.exists()
        assert run("cost", "--gain", 1, "--output", out) == 0
        assert json.loads(out.read_text())["breakeven_y"] is None
        assert manifest.exists()

    def test_strict_from_config_and_manifest_exits_4(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"strict": True}))
        assert run("cost", "--config", config, "--gain", 1) == 4
        out = tmp_path / "cost.json"
        assert run("cost", "--gain", 1, "--output", out) == 0
        manifest = json.loads((tmp_path / "cost.json.manifest.json").read_text())
        manifest["parameters"]["strict"] = True
        edited = tmp_path / "strict.json"
        edited.write_text(json.dumps(manifest))
        assert run("rerun", "--manifest", edited) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_file_bytes_agree(self, tmp_path, capsysbinary, fmt):
        args = ("cost", "--y", 50, "--format", fmt)
        assert run(*args) == 0
        stdout = capsysbinary.readouterr().out
        out = tmp_path / f"cost.{fmt}"
        assert run(*args, "--output", out) == 0
        assert out.read_bytes() == stdout
        if fmt == "json":
            assert isinstance(json.loads(stdout), dict)


class TestManifests:
    def test_sidecar_written_with_resolved_params(self, tmp_path):
        out = tmp_path / "probs.csv"
        run("probabilities", "--r", 0.1, "--n0-list", "2", "--gains", "1,2", "--output", out)
        manifest = json.loads((tmp_path / "probs.csv.manifest.json").read_text())
        assert manifest["command"] == "probabilities"
        assert manifest["parameters"]["r"] == 0.1
        assert manifest["parameters"]["seed"] == cli._FIELDS["seed"].default
        assert manifest["output"] == str(out)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command, args",
        [
            ("probabilities", ["--gains", "1,2", "--n0-list", "1,2"]),
            ("fisher-sweep", ["--gains", "1,2", "--n0-list", "1,2"]),
            ("fraction", ["--m", 50, "--gain", 1.5]),
            ("simulate", ["--gains", "1,2", "--n0-list", "2", "--runs", 2000, "--seed", 31]),
            ("cost", ["--y", 50, "--r", 0.3]),
        ],
        ids=["probabilities", "fisher-sweep", "fraction", "simulate", "cost"],
    )
    def test_rerun_reproduces_bytes(self, tmp_path, command, args, fmt):
        out = tmp_path / f"data.{fmt}"
        assert run(command, *args, "--format", fmt, "--output", out) == 0
        copy = tmp_path / f"copy.{fmt}"
        assert run("rerun", "--manifest", tmp_path / f"data.{fmt}.manifest.json",
                   "--output", copy) == 0
        assert copy.read_bytes() == out.read_bytes()

    def test_identical_invocations_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("fraction", "--m", 200, "--r", 0.25, "--gain", 2, "--n0", 2)
        run(*args, "--output", a)
        run(*args, "--output", b)
        assert a.read_bytes() == b.read_bytes()

    def test_hints_sidecar(self, tmp_path):
        out = tmp_path / "probs.csv"
        run("probabilities", "--gains", "1,2", "--n0-list", "1", "--output", out,
            "--gnuplot-hints")
        hints = (tmp_path / "probs.csv.hints.txt").read_text()
        assert "gain" in hints


class TestConfigFile:
    def test_precedence_flags_over_config_over_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"r": 0.1, "n0_list": [4], "gain_grid": [1, 3], "seed": 5}))
        out = tmp_path / "probs.csv"
        run("probabilities", "--config", config, "--r", 0.5, "--output", out)
        manifest = json.loads((tmp_path / "probs.csv.manifest.json").read_text())
        assert manifest["parameters"]["r"] == 0.5        # flag wins
        assert manifest["parameters"]["n0_list"] == [4]  # config wins
        assert manifest["parameters"]["seed"] == 5
        rows = read_csv(out)
        assert {row["n0"] for row in rows} == {"4"}

    def test_cost_block(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cost": {"x": 2.0, "y": 100.0, "z": 0.5, "epsilon": 3.0}}))
        assert run("cost", "--config", config) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["x"] == 2.0 and report["y"] == 100.0 and report["epsilon"] == 3.0

    @pytest.mark.parametrize(
        "values, field",
        [
            ({"m": 20.9}, "m"),
            ({"n0": 2.5}, "n0"),
            ({"seed": 4.7}, "seed"),
            ({"m": True}, "m"),
            ({"n0_list": [1.5]}, "n0_list"),
            ({"m": 2.5}, "m"),
            ({"n0_list": [2, True]}, "n0_list"),
        ],
    )
    def test_non_integral_values_rejected(self, tmp_path, capsys, values, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        command = "probabilities" if "n0_list" in values else "fraction"
        assert run(command, "--config", config, "--output", tmp_path / "x.csv") == 2
        assert f"invalid configuration: {field}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, values, field",
        [
            ("fraction", {"r": True, "m": 5}, "r"),
            ("probabilities", {"gain_grid": [1.0, False]}, "gain_grid"),
        ],
    )
    def test_booleans_rejected_as_numbers(self, tmp_path, capsys, command, values, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        assert run(command, "--config", config, "--output", tmp_path / "x.csv") == 2
        assert f"invalid configuration: {field}: must be a number" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_integral_floats_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"m": 20.0, "n0": 2, "seed": 4.0}))
        out = tmp_path / "x.csv"
        assert run("fraction", "--config", config, "--output", out) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["parameters"]["m"] == 20 and manifest["parameters"]["seed"] == 4

    def test_integral_floats_accepted_in_lists(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n0_list": [2.0, 300.0]}))
        assert run("probabilities", "--config", config, "--output", tmp_path / "x.csv") == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["parameters"]["n0_list"] == [2, 300]

    def test_strict_must_be_boolean(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"strict": "no"}))
        assert run("cost", "--config", config) == 2
        assert "invalid configuration: strict" in capsys.readouterr().err

    def test_unreadable_config_is_configuration_error(self, tmp_path):
        assert run("probabilities", "--config", tmp_path / "missing.json",
                   "--output", tmp_path / "x.csv") == 2


class TestExitCodes:
    def test_invalid_parameter_value(self, tmp_path):
        assert run("fraction", "--n0", 0, "--output", tmp_path / "x.csv") == 2
        assert run("simulate", "--runs", 0, "--gains", "1", "--n0-list", "1",
                   "--output", tmp_path / "x.csv") == 2
        assert run("probabilities", "--gains", "0.5", "--output", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--m", "x", "m"), ("--r", "abc", "r"), ("--seed", "1e3", "seed"),
         ("--format", "xml", "format"), ("--r", "nan", "r"), ("--gain", "inf", "gain"),
         ("--seed", str(1 << 64), "seed")],
        ids=["m", "r", "seed", "format", "r-nan", "gain-inf", "seed-2**64"],
    )
    def test_invalid_flag_value(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "x.csv"
        assert run("fraction", flag, value, "--output", out) == 2
        assert f"invalid configuration: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [(["--gains", "0.5", "--n0-list", 2], "gain must be"),
         (["--gains", 2, "--n0-list", 0], "n0 must be")],
        ids=["gain", "n0"],
    )
    def test_simulate_grid_checked_before_any_experiment(
        self, tmp_path, capsys, monkeypatch, grid, message
    ):
        def no_run(*args):
            raise AssertionError("simulate_direct called")

        monkeypatch.setattr(cli, "simulate_direct", no_run)
        out = tmp_path / "x.csv"
        assert run("simulate", *grid, "--m", 10, "--runs", 10, "--output", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_gain_with_underflowing_success_probability(self, tmp_path, capsys):
        # at r = 0, p_s = g^(-2 n0) is 0.0 for g = 1e100, n0 = 2: no state can be
        # normalized by it, and the message names the gain, not the amplitudes
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("fisher-sweep", "--r", 0, "--gains", "1e100", "--n0-list", 2,
                       "--output", out) == 2
        assert "gain=1e+100" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_point_without_data_named(self, tmp_path, capsys):
        # at r = 0.001, g = 8, n0 = 1 (p_s = 0.016) none of the ten single-sample runs
        # heralds success, and n0 = 1 leaves the failure branch without phase
        out = tmp_path / "x.csv"
        assert run("simulate", "--r", 0.001, "--m", 1, "--runs", 10, "--gains", 8,
                   "--n0-list", 1, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: no run has an informative count")
        assert "gain=8.0, n0=1, m=1, runs=10" in err
        assert not out.exists()

    def test_unparsable_list_value(self, tmp_path):
        assert run("probabilities", "--n0-list", "a,b", "--output", tmp_path / "x.csv") == 2

    def test_unwritable_output_path(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run("probabilities", "--gains", "1,2", "--n0-list", "1",
                   "--output", missing_dir) == 3

    def test_rerun_with_missing_manifest(self, tmp_path):
        assert run("rerun", "--manifest", tmp_path / "none.json") == 3

    def test_rerun_with_bad_manifest(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("rerun", "--manifest", bad) == 2

    def test_rerun_without_output(self, tmp_path, capsys):
        edited = edited_fraction_manifest(tmp_path, lambda m: m.pop("output"))
        assert run("rerun", "--manifest", edited) == 2
        assert "invalid configuration: output" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m["parameters"].update(m="x"), "m"),
            (lambda m: m.pop("parameters"), "parameters"),
            (lambda m: m.update(parameters=[20, 0.25]), "parameters"),
            (lambda m: m.update(format="xml"), "format"),
            (lambda m: m["parameters"].update(seed=-1), "seed"),
            (lambda m: m["parameters"].pop("r"), "r"),
            (lambda m: m["parameters"].update(n0=2.5), "n0"),
            (lambda m: m["parameters"].update(r=True), "r"),
        ],
        ids=["m-string", "no-parameters", "parameters-list", "format-xml", "seed-negative",
             "r-removed", "n0-non-integral", "r-boolean"],
    )
    def test_rerun_checks_manifest_like_a_direct_run(self, tmp_path, capsys, edit, field):
        edited = edited_fraction_manifest(tmp_path, edit)
        again = tmp_path / "again.csv"
        assert run("rerun", "--manifest", edited, "--output", again) == 2
        assert f"invalid configuration: {field}:" in capsys.readouterr().err
        assert not again.exists()

    @pytest.mark.parametrize(
        "edit, recorded",
        [
            (lambda m: m.update(artifact_version="0.0.1"), "'0.0.1'"),
            (lambda m: m.pop("artifact_version"), "None"),
        ],
        ids=["other", "missing"],
    )
    def test_rerun_refuses_another_artifact_version(self, tmp_path, capsys, edit, recorded):
        edited = edited_fraction_manifest(tmp_path, edit)
        again = tmp_path / "again.csv"
        assert run("rerun", "--manifest", edited, "--output", again) == 2
        assert capsys.readouterr().err == (
            f"invalid configuration: artifact_version: manifest has {recorded}, "
            f"this is {__version__!r}\n"
        )
        assert not again.exists()

    def test_rerun_with_invalid_parameters(self, tmp_path, capsys):
        edited = edited_fraction_manifest(tmp_path, lambda m: m["parameters"].update(m=0))
        assert run("rerun", "--manifest", edited, "--output", tmp_path / "again.csv") == 2
        assert "invalid configuration: m must be an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fisher-sweep", "cost"])
    def test_amplitude_with_underflowing_vacuum_amplitude(self, tmp_path, capsys, command):
        out = tmp_path / "x.out"
        grid = ["--n0-list", 2, "--gains", 2] if command == "fisher-sweep" else ["--gain", 2, "--n0", 2]
        assert run(command, "--r", 40, *grid, "--output", out) == 2
        assert "not a normal double" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fisher-sweep", "cost", "simulate"])
    def test_underflowing_vacuum_amplitude_refused_before_the_cutoff_scan(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_scan(*args):
            raise AssertionError("cutoff scan ran")

        monkeypatch.setattr(fock, "_upper_tails", no_scan)
        out = tmp_path / "x.out"
        grid = {
            "fisher-sweep": ["--n0-list", 1, "--gains", 1],
            "cost": ["--gain", 2, "--n0", 2],
            "simulate": ["--gains", 1, "--n0-list", 1, "--m", 10, "--runs", 10],
        }[command]
        assert run(command, "--r", 1000, *grid, "--output", out) == 2
        assert "not a normal double" in capsys.readouterr().err
        assert not out.exists()

    def test_cutoff_above_the_cap_refused_before_the_scan(self, tmp_path, capsys, monkeypatch):
        # the cutoff for g*r = 1e7 is near 1e14 levels: scanning to it takes about a
        # minute, and a state on it would need 1.42 PiB
        def no_scan(*args):
            raise AssertionError("cutoff scan ran")

        monkeypatch.setattr(fock, "_upper_tails", no_scan)
        out = tmp_path / "x.csv"
        assert run("fisher-sweep", "--r", 1, "--gains", "1e7", "--n0-list", 1, "--output", out) == 2
        assert "needs a cutoff above 2**24" in capsys.readouterr().err
        assert not out.exists()

    def test_amplitude_without_representable_cutoff(self, tmp_path):
        assert run("fisher-sweep", "--r", "1e100", "--n0-list", "1", "--gains", "1",
                   "--output", tmp_path / "x.csv") == 2
