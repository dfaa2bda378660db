import csv
import io
import json
import math

import pytest

from npassive.cli import main


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
