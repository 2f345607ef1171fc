"""Tests for the command-line front end: datasets, manifests, exit codes."""

import csv
import json
import math

import pytest

from nlaphase import NlaParams, success_probability
from nlaphase.cli import DEFAULTS, main


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
        assert float(row["p_s"]) == success_probability(0.25, NlaParams(2.0, 2))


class TestFisherSweep:
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

    def test_strict_no_breakeven_exits_4(self, tmp_path):
        # gain 1 leaves j_s = j_alpha, so no break-even exists
        assert run("cost", "--gain", 1, "--strict") == 4
        assert run("cost", "--gain", 1) == 0

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rerun_reproduces_bytes(self, tmp_path, fmt):
        out = tmp_path / f"cost.{fmt}"
        assert run("cost", "--y", 50, "--r", 0.3, "--format", fmt, "--output", out) == 0
        copy = tmp_path / f"copy.{fmt}"
        assert run("rerun", "--manifest", f"{out}.manifest.json", "--output", copy) == 0
        assert copy.read_bytes() == out.read_bytes()


class TestManifests:
    def test_sidecar_written_with_resolved_params(self, tmp_path):
        out = tmp_path / "probs.csv"
        run("probabilities", "--r", 0.1, "--n0-list", "2", "--gains", "1,2", "--output", out)
        manifest = json.loads((tmp_path / "probs.csv.manifest.json").read_text())
        assert manifest["command"] == "probabilities"
        assert manifest["parameters"]["r"] == 0.1
        assert manifest["parameters"]["seed"] == DEFAULTS["seed"]
        assert manifest["output"] == str(out)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rerun_reproduces_bytes(self, tmp_path, fmt):
        out = tmp_path / f"sim.{fmt}"
        run("simulate", "--gains", "1,2", "--n0-list", "2", "--runs", 2000, "--seed", 31,
            "--format", fmt, "--output", out)
        copy = tmp_path / f"copy.{fmt}"
        assert run("rerun", "--manifest", tmp_path / f"sim.{fmt}.manifest.json",
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
        ],
    )
    def test_non_integral_values_rejected(self, tmp_path, capsys, values, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        command = "probabilities" if "n0_list" in values else "fraction"
        assert run(command, "--config", config, "--output", tmp_path / "x.csv") == 2
        assert f"invalid configuration: {field}: must be an integer" in capsys.readouterr().err

    def test_integral_floats_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"m": 20.0, "n0": 2, "seed": 4.0}))
        out = tmp_path / "x.csv"
        assert run("fraction", "--config", config, "--output", out) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["parameters"]["m"] == 20 and manifest["parameters"]["seed"] == 4

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
        ],
        ids=["m-string", "no-parameters", "parameters-list", "format-xml", "seed-negative",
             "r-removed", "n0-non-integral"],
    )
    def test_rerun_checks_manifest_like_a_direct_run(self, tmp_path, capsys, edit, field):
        edited = edited_fraction_manifest(tmp_path, edit)
        again = tmp_path / "again.csv"
        assert run("rerun", "--manifest", edited, "--output", again) == 2
        assert f"invalid configuration: {field}:" in capsys.readouterr().err
        assert not again.exists()

    def test_rerun_with_invalid_parameters(self, tmp_path, capsys):
        edited = edited_fraction_manifest(tmp_path, lambda m: m["parameters"].update(m=0))
        assert run("rerun", "--manifest", edited, "--output", tmp_path / "again.csv") == 2
        assert "invalid configuration: m must be >= 1" in capsys.readouterr().err

    def test_amplitude_without_representable_cutoff(self, tmp_path):
        assert run("fisher-sweep", "--r", "1e100", "--n0-list", "1", "--gains", "1",
                   "--output", tmp_path / "x.csv") == 2
