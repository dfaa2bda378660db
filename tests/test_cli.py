import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
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
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) >= 2

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


class TestOtherCommands:
    def test_saturate(self, capsys):
        assert main(["saturate", "--n", "2", "--m", "1", "--frac", "0.9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alpha_measured"] >= 0.9 * out["alpha_max"]

    def test_saturate_ratio_above_ceiling_is_one_line_error(self, monkeypatch, capsys):
        import npassive.extremal as X

        # a too-cold isentropic temperature understates E_beta, so the ratio overshoots
        real = X.solve_beta_for_entropy
        monkeypatch.setattr(X, "solve_beta_for_entropy", lambda s, S: 2.0 * real(s, S))
        assert main(["saturate", "--n", "3", "--m", "2", "--frac", "0.9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: measured ratio")
        assert captured.err.count("\n") == 1

    def test_nstar_rational(self, capsys):
        assert main(["nstar", "--rational", "0 1 2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_star"] == 2

    def test_nstar_floats(self, capsys):
        assert main(["nstar", "--energies", "0", "1", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["n_star"] == 3

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


class TestErrorBoundary:
    """Input errors from every layer exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--n", "0"],
            ["check", "--n", "1", "--stability", "0"],
            ["check", "--n", "700"],  # C(702, 2) occupation vectors exceeds the cap
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
        ],
    )
    def test_state_commands(self, fixture_state, argv):
        code, out, err = run([argv[0], "--state", fixture_state, *argv[1:]])
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
            # inf printed numpy's RuntimeWarning, and nan was blamed on "beta must be >= 0"
            *(["scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1", "1", "10",
               "--n", "3", f"--beta-min={lo}", f"--beta-max={hi}", "--points", "2"]
              for lo, hi in [("nan", "2"), ("1", "nan"), ("1", "inf"), ("-inf", "2")]),
        ],
    )
    def test_other_commands(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ergotropy_multiplicity_overflow(self, tmp_path):
        # C(1100, 550) leaves the float range; this was an OverflowError traceback
        path = write_state(tmp_path, "q.json", [0, 1], [0.7, 0.3])
        code, out, err = run(["ergotropy", "--state", path, "--n", "1100"])
        assert (code, out) == (2, "")
        assert err.startswith("error: N = 1100") and err.count("\n") == 1

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

    def test_tiny_unequal_level_is_unstable(self, tmp_path):
        path = write_state(tmp_path, "t.json", [0, 1, 1, 2], [1 - 3.5e-15, 1e-15, 2e-15, 5e-16])
        code, out, _ = run(["check", "--state", path, "--n", "1", "--stability", "1"])
        assert code == 0
        assert strict_json(out)["stability"]["stable"] is False


SPECIAL = [math.nan, math.inf, -math.inf, -0.5, 0.0, 1e-300, 1e-15, 1e6]


@st.composite
def state_data(draw):
    """A valid state file, or one with a single flaw."""
    d = draw(st.integers(1, 4))
    energies = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
    total = sum(weights)
    pops = [w / total for w in weights] if total > 0 else weights
    flaw = draw(st.sampled_from([None] * 5 + ["energy", "population", "length", "order", "key"]))
    if flaw == "energy":
        energies[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SPECIAL))
    elif flaw == "population":
        pops[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SPECIAL))
    elif flaw == "length":
        pops.append(0.0)
    elif flaw == "order":
        energies.reverse()
    data = {"energies": energies, "populations": pops}
    if flaw == "key":
        del data[draw(st.sampled_from(sorted(data)))]
    return data


ORDER = st.sampled_from(["-1", "0", "1", "2", "3", "5", "x"])
# (flag, values, required): a required flag is left out one time in ten
OPTIONS = {
    "check": [
        ("--n", ORDER, True),
        ("--stability", ORDER, False),
        ("--tol", st.sampled_from(["0", "1e-9", "nan", "inf", "-inf"]), False),
    ],
    "ergotropy": [("--n", ORDER, False)],
    "gibbs": [
        ("--beta", st.sampled_from(["-1", "0", "0.5", "3", "1e3", "inf", "-inf", "nan", "x"]), False),
        ("--entropy", st.sampled_from(["-1", "0", "1e-20", "0.3", "1", "5", "inf", "nan"]), False),
    ],
    "bounds": [("--n", ORDER, True), ("--table", st.just(None), False)],
    "flatten": [],
    "classify-cp": [("--tol", st.sampled_from(["0", "1e-8", "nan", "inf", "-inf"]), False)],
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
    elif command == "saturate" and code == 1:  # an unreachable target, reported on stderr
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        if command == "scan-alpha":
            assert out.startswith("beta,alpha,bound_inverse,bound_exponential\n")
            assert all(len(row) == 4 for row in csv.reader(io.StringIO(out)))
        else:
            strict_json(out)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=state_data(), argv=state_argv())
def test_fuzz_state_commands(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(json.dumps(data))
        code, out, err = run([argv[0], "--state", str(path), *argv[1:]])
    assert_one_outcome(argv[0], code, out, err)
    if any(flag == "--tol" and value in ("nan", "inf", "-inf") for flag, value in zip(argv, argv[1:])):
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
# (N, m) pairs: saturate works for m = N - 1 only, and stays at N <= 8, as its
# order-N cuts grow as N**4
ORDERS = st.sampled_from([("2", "1"), ("3", "2"), ("5", "4"), ("8", "7"), ("3", "1"),
                          ("2", "2"), ("0", "1"), ("x", "1"), ("8", "-1")])
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
        (option("--tol", st.sampled_from(["0", "1e-9", "nan", "inf", "-inf"])), False),
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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=other_argv())
def test_fuzz_other_commands(argv):
    code, out, err = run(argv)
    assert_one_outcome(argv[0], code, out, err)
    if any(arg.partition("=")[2] in ("nan", "inf", "-inf") and arg.startswith(NON_FINITE_REJECTED)
           for arg in argv):
        assert code == 2
