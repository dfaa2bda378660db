import contextlib
import csv
import io
import json
import math
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from npassive.cli import main


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def run(argv):
    """(exit code, stdout, stderr) of main, argparse usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_state(tmp_path, name, energies, populations, rational=None):
    path = tmp_path / name
    data = {"energies": energies, "populations": populations}
    if rational is not None:
        data["rational_energies"] = rational
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def fixture_state(tmp_path):
    return write_state(tmp_path, "s.json", [0, 1, 1.9], [0.5, 0.35, 0.15])


class TestCheck:
    def test_not_passive_exit_one(self, fixture_state, capsys):
        code = main(["check", "--state", fixture_state, "--n", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["passive"] is False
        assert out["witness"] == {"higher": [0, 2, 0], "lower": [1, 0, 1]}

    def test_passive_exit_zero(self, fixture_state, capsys):
        code = main(["check", "--state", fixture_state, "--n", "1", "--stability", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passive"] is True
        assert out["stability"]["stable"] is True

    def test_missing_file_exit_two(self, capsys):
        code = main(["check", "--state", "/nonexistent.json", "--n", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"energies": [0, 1],')
        code = main(["check", "--state", str(path), "--n", "1"])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_bad_schema_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"energies": [0, "x"], "populations": [0.5, 0.5]}')
        assert main(["check", "--state", str(path), "--n", "1"]) == 2


class TestErgotropyGibbs:
    def test_ergotropy(self, fixture_state, capsys):
        assert main(["ergotropy", "--state", fixture_state, "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ergotropy_1"] == 0.0
        assert out["n_ergotropy"] > 0

    def test_gibbs_beta(self, tmp_path, capsys):
        path = write_state(tmp_path, "g.json", [0, 1], [0.5, 0.5])
        assert main(["gibbs", "--state", path, "--beta", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["energy"] == pytest.approx(0.5)
        assert out["entropy"] == pytest.approx(math.log(2))

    def test_gibbs_entropy_inversion(self, tmp_path, capsys):
        path = write_state(tmp_path, "g.json", [0, 1, 2], [1 / 3, 1 / 3, 1 / 3])
        assert main(["gibbs", "--state", path, "--entropy", "0.8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entropy"] == pytest.approx(0.8, abs=1e-10)

    def test_exclusive_flags(self, fixture_state):
        assert main(["gibbs", "--state", fixture_state]) == 2


class TestBoundsFlatten:
    def test_gibbs_state_bound_holds(self, tmp_path, capsys):
        import numpy as np

        from npassive.gibbs import gibbs_populations
        from npassive.spectra import normalize_spectrum

        s = normalize_spectrum([0, 1, 1.9])
        pops = list(gibbs_populations(s, 1.1).populations)
        path = write_state(tmp_path, "g.json", [0, 1, 1.9], pops)
        assert main(["bounds", "--state", path, "--n", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slack"] >= 0

    def test_table(self, fixture_state, capsys):
        assert main(["bounds", "--state", fixture_state, "--n", "5", "--table"]) == 0
        report, *rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows == [
            {"regime": "Exponential", "bound_value": report["bound_exponential"]},
            {"regime": "Inverse", "bound_value": report["bound_inverse"]},
        ]

    def test_table_has_no_rows_outside_their_regime(self, tmp_path):
        # order-3 passive but not stable at order 1: its energy 0.1 exceeds
        # E_beta, which the Exponential and Inverse rows would both read
        path = write_state(tmp_path, "a.json", [0, 0, 1], [0.5, 0.4, 0.1])
        code, out, _ = run(["bounds", "--state", path, "--n", "3", "--table"])
        (row,) = strict_json(out)["rows"]
        assert (code, row["regime"]) == (0, "AsymptoticTwoLevel")

    def test_flatten(self, tmp_path, capsys):
        path = write_state(tmp_path, "f.json", [0, 0, 1], [0.5, 0.3, 0.2])
        assert main(["flatten", "--state", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["flattened"] == pytest.approx([0.4, 0.4, 0.2])
        assert out["delta_S"] > 0


class TestScanAlpha:
    def test_csv_format(self, capsys):
        args = [
            "scan-alpha", "--energies", "0", "1", "1.001",
            "--degeneracies", "1", "1", "10",
            "--n", "5", "--beta-min", "1", "--beta-max", "9",
            "--points", "3", "--resolution", "40",
        ]
        assert main(args) == 0
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert lines[0] == "beta,alpha,bound_inverse,bound_exponential"
        assert len(lines) == 4
        rows = list(csv.reader(io.StringIO(text)))
        betas = [float(r[0]) for r in rows[1:]]
        assert betas == sorted(betas)

    def test_deterministic_output(self, tmp_path):
        args = [
            "scan-alpha", "--energies", "0", "1", "1.001",
            "--degeneracies", "1", "1", "10",
            "--n", "4", "--beta-min", "2", "--beta-max", "6",
            "--points", "2", "--resolution", "30",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_degenerate_ground_stays_under_the_ceiling(self):
        # the full entropy lost the gap of the cold states on a doubly
        # degenerate ground: alpha read 1.738 and 2.8e8 at beta = 40 and 60
        code, out, err = run(["scan-alpha", "--energies", "0", "1", "3", "--degeneracies", "2",
                              "1", "10", "--n", "4", "--beta-min", "20", "--beta-max", "60",
                              "--points", "3"])
        assert (code, err) == (0, "")
        for row in list(csv.DictReader(io.StringIO(out))):
            assert 1.0 <= float(row["alpha"]) <= float(row["bound_inverse"])

    def test_ratio_above_ceiling_exits_one(self, monkeypatch):
        monkeypatch.setattr("npassive.extremal.alpha_max", lambda N, R: 0.5)
        code, out, err = run(["scan-alpha", "--energies", "0", "1", "1.9", "--degeneracies", "1",
                              "1", "1", "--n", "3", "--beta-min", "1", "--beta-max", "2",
                              "--points", "2"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_all_tied_levels_exit_two(self):
        # every order-3 energy sum ties, so the cone has no cut: numpy's
        # "attempt to get argmax of an empty sequence" came out of the ray search
        code, out, err = run(["scan-alpha", "--energies", "0", "1e-10", "2e-10", "--degeneracies",
                              "1", "1", "5", "--n", "3", "--beta-min", "1", "--beta-max", "2",
                              "--points", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: the order-3 energy sums") and err.count("\n") == 1
        assert "all tie" in err

    def test_numpy_grid_prints_no_warning(self):
        # exit 0, but numpy's "overflow encountered in scalar divide" on stderr
        code, out, err = run(["scan-alpha", "--energies", "0", "0.7", "1", "--degeneracies", "1",
                              "1", "1000000000000", "--n", "8",
                              "--beta-min", "0.05794373236001465", "--beta-max", "0.06",
                              "--points", "2"])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3

    def test_order_one_tie_prints_no_warning(self):
        # the tie at 1/1 gives the ray (0, 1, 0), whose cap divided by zero
        code, out, err = run(["scan-alpha", "--energies", "0", "1", "1.0000000001", "--degeneracies",
                              "1", "2", "1000000", "--n", "1", "--beta-min", "1", "--beta-max", "2",
                              "--points", "2"])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3

    def test_order_past_the_table(self):
        # the order-N occupation table refused this past N = 1,153
        code, out, err = run(["scan-alpha", "--energies", "0", "1", "1.9", "--degeneracies", "1",
                              "1", "1000000", "--n", "100000", "--beta-min", "1", "--beta-max",
                              "20", "--points", "3"])
        assert (code, err) == (0, "")
        for row in list(csv.DictReader(io.StringIO(out))):
            assert 1.0 <= float(row["alpha"]) <= float(row["bound_inverse"])

    def test_one_level_exit_two(self):
        # the error names the level count, not beta
        code, out, err = run(["scan-alpha", "--energies", "0", "--degeneracies", "3", "--n", "2",
                              "--beta-min", "1", "--beta-max", "2", "--points", "2"])
        assert (code, out) == (2, "")
        assert err == "error: the ray maximizer needs two or three distinct levels, not 1\n"

    def test_multiplicity_past_the_float_range_exits_two(self):
        # OverflowError from log_multiplicities came out as a traceback, exit 1
        code, out, err = run(["scan-alpha", "--energies", "0", "1", "1.9", "--degeneracies", "1",
                              "1", str(10**400), "--n", "3", "--beta-min", "1", "--beta-max", "2",
                              "--points", "3"])
        assert (code, out) == (2, "")
        assert err == "error: multiplicities must be below 2**1024 - 2**970, the float range\n"

    def test_order_zero_is_the_guards_error(self):
        # scan-alpha refused it with its own message, unlike every other command
        code, out, err = run(["scan-alpha", "--energies", "0", "1", "1.9", "--degeneracies", "1",
                              "1", "10", "--n", "0", "--beta-min", "1", "--beta-max", "2",
                              "--points", "2"])
        assert (code, out) == (2, "")
        assert err == "error: N must be >= 1 and an integer, got 0\n"


STATE_COMMANDS = ("check", "ergotropy", "gibbs", "bounds", "flatten", "classify-cp")


@pytest.mark.parametrize("command", [*STATE_COMMANDS, "scan-alpha", "saturate", "nstar"])
def test_help_lists_state_first_and_output_last(command):
    code, out, err = run([command, "--help"])
    assert (code, err) == (0, "")
    options = [line.split()[0].rstrip(",") for line in out.split("\noptions:\n")[1].splitlines()
               if line.startswith("  -")]
    assert options[0] == "-h" and options[-1] == "--output"
    assert options.count("--state") == (options[1] == "--state") == (command in STATE_COMMANDS)
    assert options.count("--output") == 1


class TestOtherCommands:
    def test_saturate(self, capsys):
        assert main(["saturate", "--n", "2", "--m", "1", "--frac", "0.9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alpha_measured"] >= 0.9 * out["alpha_max"]

    def test_saturate_large_order(self):
        code, out, err = run(["saturate", "--n", "400", "--m", "399", "--frac", "0.5"])
        assert code == 0 and err == ""
        result = strict_json(out)
        assert result["alpha_measured"] <= result["alpha_max"]

    def test_saturate_past_order_1000(self):
        # both exited 1 with "gap ratio 1/r escaped" while r's offset exceeded
        # 1/m, and (1500, 1499) then exited 2 on the occupation table's cap
        for n in ("1100", "1500"):
            code, out, err = run(["saturate", "--n", n, "--m", str(int(n) - 1), "--frac", "0.5"])
            assert code == 0 and err == ""
            result = strict_json(out)
            assert 0.5 * result["alpha_max"] <= result["alpha_measured"] <= result["alpha_max"]

    def test_saturate_rejected_state_is_one_line_error(self):
        # (3, 1) exited 1 on an envelope state that failed the passivity scan
        for n, m, frac in [("300", "1", "0.5"), ("3", "1", "0.9")]:
            code, out, err = run(["saturate", "--n", n, "--m", m, "--frac", frac])
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "best ratio" in err

    def test_saturate_ratio_above_ceiling_is_one_line_error(self, monkeypatch, capsys):
        import npassive.extremal as X

        monkeypatch.setattr(X, "alpha_max", lambda N, R: 0.5)
        assert main(["saturate", "--n", "3", "--m", "2", "--frac", "0.9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha") and "exceeds its ceiling 0.5" in captured.err
        assert captured.err.count("\n") == 1

    def test_nstar_rational(self, capsys):
        assert main(["nstar", "--rational", "0 1 2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_star"] == 2

    def test_nstar_floats(self, capsys):
        assert main(["nstar", "--energies", "0", "1", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["n_star"] == 3

    def test_nstar_prints_a_large_lcm(self):
        # the lcm over all triples has 4,365 digits here, and the dump
        # exited 2 on Python's 4,300-digit limit for int-to-str conversion
        rng = random.Random(8)
        levels = [0.0, *sorted(rng.uniform(0.2, 3.0) for _ in range(19))]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        argv = ["nstar", "--energies", *map(repr, levels)]
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert_output_is_stdout(argv, code, out, err)
        if limit:
            assert sys.get_int_max_str_digits() == limit
            sys.set_int_max_str_digits(0)
        try:
            result = strict_json(out)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert result["all_triples_lcm"] >= 10**4300

    def test_classify_cp(self, fixture_state, capsys):
        assert main(["classify-cp", "--state", fixture_state]) == 1
        assert json.loads(capsys.readouterr().out)["tag"] == "NotCP"


class TestRoundTrip:
    def test_flatten_output_reparses_identically(self, tmp_path, capsys):
        path = write_state(tmp_path, "f.json", [0, 0, 1], [0.55, 0.25, 0.2])
        main(["flatten", "--state", path])
        out = json.loads(capsys.readouterr().out)
        pops = out["flattened"]
        again = write_state(tmp_path, "f2.json", [0, 0, 1], pops)
        main(["flatten", "--state", again])
        out2 = json.loads(capsys.readouterr().out)
        assert out2["flattened"] == pops


def run_small(argv):
    """run(argv) at a tracemalloc peak below 16 MB, the cap's 2e6 entries in
    float64: an input error is refused before anything large is built."""
    tracemalloc.start()
    try:
        result = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    return result


class TestErrorBoundary:
    """Input errors from every layer exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--n", "0"],
            ["check", "--n", "1", "--stability", "0"],
            ["check", "--n", "1154"],  # C(1156, 2) x 3 table entries exceed the cap
            ["ergotropy", "--n", "0"],
            ["bounds", "--n", "0"],
            ["gibbs", "--beta", "-1"],
            ["gibbs", "--beta", "nan"],
            ["gibbs", "--beta", "x"],
            ["gibbs", "--entropy", "nan"],
            ["gibbs", "--entropy", "5"],
            # a NaN tolerance made every comparison False, so check called
            # this non-passive state passive with exit 0
            ["check", "--n", "2", "--tol=nan"],
            ["check", "--n", "2", "--tol=inf"],
            ["check", "--n", "2", "--tol=-inf"],
            ["classify-cp", "--tol=nan"],
            ["classify-cp", "--tol=inf"],
            ["classify-cp", "--tol=-inf"],
            # a negative tolerance called the passive-at-order-1 state
            # non-passive, with a "witness" that violated nothing
            ["check", "--n", "1", "--tol", "-1"],
            ["classify-cp", "--tol", "-1"],
        ],
    )
    def test_state_commands(self, fixture_state, argv):
        code, out, err = run_small([argv[0], "--state", fixture_state, *argv[1:]])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-alpha", "--energies", "0", "1", "2", "3", "--degeneracies", "1", "1", "1",
             "1", "--n", "3", "--beta-min", "1", "--beta-max", "2", "--points", "1"],
            ["scan-alpha", "--energies", "0", "1", "nan", "--degeneracies", "1", "1", "1",
             "--n", "3", "--beta-min", "1", "--beta-max", "2", "--points", "1"],
            ["saturate", "--n", "2", "--m", "2", "--frac", "0.5"],
            ["nstar", "--rational", "0 1 3/0"],
            ["nstar", "--energies", "0", "1", "2", "--tol=nan"],  # printed "n_star": null
            ["nstar", "--energies", "0", "1", "2", "--tol=inf"],
            ["nstar", "--energies", "0", "1", "2", "--tol=-inf"],
            ["nstar", "--energies", "0", "1", "2", "--tol", "-1"],  # printed "n_star": null
            # inf printed numpy's RuntimeWarning, and nan was blamed on "beta must be >= 0"
            *(["scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1", "1", "10",
               "--n", "3", f"--beta-min={lo}", f"--beta-max={hi}", "--points", "2"]
              for lo, hi in [("nan", "2"), ("1", "nan"), ("1", "inf"), ("-inf", "2")]),
            # --points 0 printed a bare CSV header with exit 0, -1 numpy's ValueError
            *(["scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1", "1", "10",
               "--n", "3", "--beta-min=1", "--beta-max=2", f"--points={points}"]
              for points in ("0", "-1")),
            # on two levels --n 0 divided by zero in a traceback, and -1 printed a CSV
            *(["scan-alpha", "--energies", "0", "1", "--degeneracies", "1", "4", f"--n={n}",
               "--beta-min=1", "--beta-max=2", "--points", "1"] for n in ("0", "-1")),
            # a 10**12-point beta grid ended in numpy's _ArrayMemoryError
            # traceback with exit 1
            ["scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1", "1", "1000",
             "--n", "5", "--beta-min=1", "--beta-max=2", "--points", "1000000000000"],
        ],
    )
    def test_other_commands(self, argv):
        code, out, err = run_small(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_resolution_is_ignored(self):
        # --resolution 1000000 once asked for a 10**6 x 10**6 chord grid
        argv = ["scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1", "1", "1000",
                "--n", "5", "--beta-min=1", "--beta-max=2", "--points", "1"]
        code, out, err = run_small(argv + ["--resolution", "1000000"])
        assert (code, err) == (0, "")
        assert out == run(argv)[1]

    def test_wide_table_refused(self, tmp_path):
        # 180,300 rows of 600 slots at N = 2, 825 MiB as int64, passed a row cap of 200,000
        path = write_state(tmp_path, "w.json", list(range(600)), [1 / 600] * 600)
        code, out, err = run_small(["check", "--state", path, "--n", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ergotropy_multiplicity_overflow(self, tmp_path):
        # C(1100, 550) leaves the float range; the multiplicities stay in log
        # space, and the inverted qubit gives N*(0.7 - 0.3)
        path = write_state(tmp_path, "q.json", [0, 1], [0.3, 0.7])
        code, out, err = run(["ergotropy", "--state", path, "--n", "1100"])
        assert (code, err) == (0, "")
        assert strict_json(out)["n_ergotropy"] == pytest.approx(440.0, rel=1e-10)

    def test_nan_population_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"energies": [0, 1, 1.9], "populations": [0.5, NaN, 0.5]}')
        code, out, err = run(["check", "--state", str(path), "--n", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_bound_is_strict_json(self, tmp_path):
        from npassive.gibbs import gibbs_populations
        from npassive.spectra import normalize_spectrum

        energies = [0, 1, 1.000001, 2]
        pops = list(gibbs_populations(normalize_spectrum(energies), 1.0).populations)
        path = write_state(tmp_path, "g.json", energies, pops)
        code, out, _ = run(["bounds", "--state", path, "--n", "5"])
        assert code == 0
        assert strict_json(out)["bound_value"] == "inf"
        code, out, _ = run(["bounds", "--state", path, "--n", "5", "--table"])
        assert code == 0
        assert strict_json(out)["rows"][1]["bound_value"] == "inf"

    @pytest.mark.parametrize("data", [
        {"energies": [0, 1], "populations": [True, False]},
        {"energies": [0, 1], "populations": ["0.7", "0.3"]},
        {"rational_energies": [[0, 1], [1.5, 1]], "populations": [0.7, 0.3]},
        {"rational_energies": [[0, 1], [True, 1]], "populations": [0.7, 0.3]},
        {"energies": [0, 1], "populations": [1, 10**400]},
        {"energies": [0, 10**400], "populations": [0.5, 0.5]},
        {"rational_energies": [[0, 1], [10**400, 1]], "populations": [0.5, 0.5]},
    ])
    def test_wrongly_typed_state_file(self, tmp_path, data):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        code, out, err = run(["check", "--state", str(path), "--n", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tiny_unequal_level_is_unstable(self, tmp_path):
        path = write_state(tmp_path, "t.json", [0, 1, 1, 2], [1 - 3.5e-15, 1e-15, 2e-15, 5e-16])
        code, out, _ = run(["check", "--state", path, "--n", "1", "--stability", "1"])
        assert code == 0
        assert strict_json(out)["stability"]["stable"] is False


SPECIAL = [math.nan, math.inf, -math.inf, -0.5, 0.0, 1e-300, 1e-15, 1e6]


# JSON values of the wrong type for a population, and for a rational's p or q
NOT_A_NUMBER = [True, False, "0.5", None, [0.5]]
NOT_AN_INTEGER = [1.5, 1.0, True, False, "1", None]
# flaws every state command must refuse with exit 2
TYPE_FLAWS = ("population type", "rational type")


@st.composite
def state_data(draw):
    """(state file, flaw): a valid state file (flaw None or "rational"), or one with a single flaw."""
    d = draw(st.integers(1, 4))
    energies = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
    total = sum(weights)
    pops = [w / total for w in weights] if total > 0 else weights
    flaw = draw(st.sampled_from([None] * 5 + ["energy", "population", "length", "order", "key",
                                              "rational", *TYPE_FLAWS]))
    if flaw == "energy":
        energies[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SPECIAL))
    elif flaw == "population":
        pops[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SPECIAL))
    elif flaw == "population type":
        pops[draw(st.integers(0, d - 1))] = draw(st.sampled_from(NOT_A_NUMBER))
    elif flaw == "length":
        pops.append(0.0)
    elif flaw == "order":
        energies.reverse()
    data = {"energies": energies, "populations": pops}
    if flaw == "key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif flaw in ("rational", "rational type"):
        # exact quarters of the energies; "rational" alone is a valid file
        pairs = [[round(4 * e), 4] for e in energies]
        if flaw == "rational type":
            pairs[draw(st.integers(0, d - 1))][draw(st.integers(0, 1))] = draw(
                st.sampled_from(NOT_AN_INTEGER))
        data["rational_energies"] = pairs
    return data, flaw


ORDER = st.sampled_from(["-1", "0", "1", "2", "3", "5", "x"])
REJECTED_TOLS = ("-1", "nan", "inf", "-inf")
# (flag, values, required): a required flag is left out one time in ten
OPTIONS = {
    "check": [
        ("--n", ORDER, True),
        ("--stability", ORDER, False),
        ("--tol", st.sampled_from(["0", "1e-9", "-1", "nan", "inf", "-inf"]), False),
    ],
    "ergotropy": [("--n", ORDER, False)],
    "gibbs": [
        ("--beta", st.sampled_from(["-1", "0", "0.5", "3", "1e3", "inf", "-inf", "nan", "x"]), False),
        ("--entropy", st.sampled_from(["-1", "0", "1e-20", "0.3", "1", "5", "inf", "nan"]), False),
    ],
    "bounds": [("--n", ORDER, True), ("--table", st.just(None), False)],
    "flatten": [],
    "classify-cp": [("--tol", st.sampled_from(["0", "1e-8", "-1", "nan", "inf", "-inf"]), False)],
}


@st.composite
def state_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values, required in OPTIONS[command]:
        if draw(st.integers(0, 9)) > 0 if required else draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    return argv


def assert_one_outcome(command, code, out, err):
    """Exit 0 or 1 with a report on stdout, or exit 2 with one error and no stdout."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert out == ""
        if lines[0].startswith("usage:"):  # argparse
            assert ": error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")
    elif command in ("saturate", "scan-alpha") and code == 1:  # reported on stderr
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        if command == "scan-alpha":
            assert out.startswith("beta,alpha,bound_inverse,bound_exponential\n")
            assert all(len(row) == 4 for row in csv.reader(io.StringIO(out)))
        else:
            strict_json(out)


def assert_output_is_stdout(argv, code, out, err):
    """argv with ``--output`` writes the file with exactly the bytes of stdout
    (code, out, err), with the same exit code and stderr; a run that printed
    nothing creates no file.  A path that cannot be opened for writing, in a
    missing directory or a directory itself, exits 2 with one line instead of
    the report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        assert run([*argv, "--output", str(path)]) == (code, "", err)
        assert (path.read_bytes() if path.exists() else b"") == out.encode()
        assert out or not path.exists()
        for bad in (Path(tmp) / "no" / "such" / "x.json", Path(tmp)):
            bad_code, bad_out, bad_err = run([*argv, "--output", str(bad)])
            if out:
                assert (bad_code, bad_out) == (2, "")
                assert bad_err.startswith(f"error: cannot write {bad}: ")
                assert bad_err.count("\n") == 1
            else:
                assert (bad_code, bad_out, bad_err) == (code, out, err)


FIXTURE_STATE = ({"energies": [0, 1, 1.9], "populations": [0.5, 0.35, 0.15]}, None)


# every state command writes through --output at least once per run
@example(state=FIXTURE_STATE, argv=["check", "--n", "2"], to_file=True)
@example(state=FIXTURE_STATE, argv=["ergotropy", "--n", "2"], to_file=True)
@example(state=FIXTURE_STATE, argv=["gibbs", "--beta", "inf"], to_file=True)
@example(state=FIXTURE_STATE, argv=["bounds", "--n", "2", "--table"], to_file=True)
@example(state=({"energies": [0, 0, 1], "populations": [0.55, 0.25, 0.2]}, None),
         argv=["flatten"], to_file=True)
@example(state=FIXTURE_STATE, argv=["classify-cp"], to_file=True)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=state_data(), argv=state_argv(), to_file=st.booleans())
def test_fuzz_state_commands(state, argv, to_file):
    data, flaw = state
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(json.dumps(data))
        argv = [argv[0], "--state", str(path), *argv[1:]]
        code, out, err = run(argv)
        if to_file:
            assert_output_is_stdout(argv, code, out, err)
    assert_one_outcome(argv[0], code, out, err)
    if flaw in TYPE_FLAWS:
        assert code == 2
    if any(flag == "--tol" and value in REJECTED_TOLS for flag, value in zip(argv, argv[1:])):
        assert code == 2


def option(flag, values):
    # flag=value keeps a value such as -inf from reading as a flag
    return values.map(lambda v: [f"{flag}={v}"])


BETA = st.sampled_from(["0.5", "1", "3", "40"] * 3 + ["-1", "0", "nan", "inf", "-inf", "x"])
LEVELS = st.sampled_from([
    (["0", "1", "1.001"], ["1", "1", "1000"]),
    (["0", "1", "1.9"], ["1", "2", "1"]),
    (["0", "1"], ["1", "4"]),
    (["0", "1", "nan"], ["1", "1", "1"]),
    (["0", "1", "1.001"], ["1", "1"]),
    (["0", "1", "2", "3"], ["1", "1", "1", "1"]),
    (["1", "0", "2"], ["1", "1", "1"]),
    (["0", "1", "2"], ["1", "0", "1"]),
])
# (N, m) pairs: m = N - 1, m < N - 1 and invalid orders
ORDERS = st.sampled_from([("2", "1"), ("3", "2"), ("5", "4"), ("8", "7"), ("100", "99"),
                          ("400", "399"), ("3", "1"), ("2", "2"), ("0", "1"), ("x", "1"),
                          ("8", "-1")])
OTHER_OPTIONS = {
    "scan-alpha": [
        (LEVELS.map(lambda lv: ["--energies", *lv[0], "--degeneracies", *lv[1]]), True),
        (option("--n", ORDER), True),
        (option("--beta-min", BETA), True),
        (option("--beta-max", BETA), True),
        (option("--points", st.sampled_from(["1", "3", "3", "0", "-1"])), True),
        (option("--resolution", st.sampled_from(["8", "20", "20", "0", "2"])), True),
    ],
    "saturate": [
        (ORDERS.map(lambda nm: [f"--n={nm[0]}", f"--m={nm[1]}"]), True),
        (option("--frac", st.sampled_from(["0", "0.5", "0.9", "0.9", "1", "1.5", "-0.5", "nan"])),
         True),
    ],
    "nstar": [
        (st.sampled_from([["0", "1", "3"], ["0", "1", "1.9"], ["0", "1"], ["0", "nan", "1"]])
         .map(lambda e: ["--energies", *e]), False),
        (option("--rational", st.sampled_from(["0 1 3", "0 1/2 1", "0 1 3/0", "0 x"])), False),
        (option("--max-den", st.sampled_from(["-1", "0", "1", "1000"])), False),
        (option("--tol", st.sampled_from(["0", "1e-9", "-1", "nan", "inf", "-inf"])), False),
    ],
}
NON_FINITE_REJECTED = ("--beta-min=", "--beta-max=", "--tol=")


@st.composite
def other_argv(draw):
    command = draw(st.sampled_from(sorted(OTHER_OPTIONS)))
    argv = [command]
    for fragments, required in OTHER_OPTIONS[command]:
        if draw(st.integers(0, 9)) > 0 if required else draw(st.booleans()):
            argv += draw(fragments)
    return argv


# every other command writes through --output at least once per run; the
# second saturate call exits 1 with an error line and writes nothing
@example(argv=["scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1", "1", "10",
               "--n=4", "--beta-min=2", "--beta-max=6", "--points=3"], to_file=True)
@example(argv=["saturate", "--n=2", "--m=1", "--frac=0.9"], to_file=True)
@example(argv=["saturate", "--n=3", "--m=1", "--frac=0.9"], to_file=True)
@example(argv=["nstar", "--rational=0 1 3/2 2"], to_file=True)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=other_argv(), to_file=st.booleans())
def test_fuzz_other_commands(argv, to_file):
    code, out, err = run(argv)
    if to_file:
        assert_output_is_stdout(argv, code, out, err)
    assert_one_outcome(argv[0], code, out, err)
    if any(arg.partition("=")[2] in ("nan", "inf", "-inf") and arg.startswith(NON_FINITE_REJECTED)
           for arg in argv):
        assert code == 2
    if "--points=0" in argv or "--points=-1" in argv or "--tol=-1" in argv:
        assert code == 2
