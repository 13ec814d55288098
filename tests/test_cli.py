import csv
import json
import hashlib

import numpy as np
import pytest

from fcqst.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_opt_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "8", "--j0", "1", "--hamiltonian", "opt")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["fidelity"] >= 1 - 1e-10
    assert abs(doc["transfer_time"] - np.pi / 4) < 1e-12
    assert doc["boundary_form_valid"] is True


def test_verify_opt_prime_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "8", "--hamiltonian", "opt-prime")
    assert code == 0
    assert json.loads(out)["fidelity"] >= 1 - 1e-10


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["fidelity"]) >= 1 - 1e-10


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--n", "2")[0] == 2
    assert run_cli(capsys, "verify")[0] == 2
    assert run_cli(capsys, "verify", "--n", "8", "--hamiltonian", "bogus")[0] == 2
    assert run_cli(capsys, "bogus-command")[0] == 2


def test_case_table_stdout(capsys):
    code, out, _ = run_cli(capsys, "case-table", "--n", "8", "--j0", "1")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["t_min"] for r in rows[:5]] == ["none"] * 5
    assert float(rows[7]["t_min"]) == pytest.approx(np.pi / 4, abs=1e-12)
    assert rows[7]["zero_slacks"] == "1A,1N,AN"
    assert rows[0]["zero_multipliers"] == "1A,1N,AN"


def test_case_table_rejects_overlarge_j1n_bar(capsys):
    code, _, err = run_cli(capsys, "case-table", "--n", "8", "--j0", "1",
                           "--j1n-bar", "1.2")
    assert code == 2
    assert "exceeds" in err


def test_case_table_writes_manifest(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, "case-table", "--n", "8", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["outputs"][0]["path"] == str(out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"][0]["sha256"] == digest
    assert manifest["tool_version"]


def test_qb_check_case8_passes(capsys):
    code, out, _ = run_cli(capsys, "qb-check", "--case", "8", "--n", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert max(doc["qb_equation_residual"], doc["normalization_residual"],
               doc["constraint_residual"], doc["complementarity_residual"]) <= 1e-8


def test_qb_check_case7_saturating_notes_reduction(capsys):
    code, out, _ = run_cli(capsys, "qb-check", "--case", "7", "--n", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert "case 8" in doc["note"]


def test_qb_check_case6_passes(capsys):
    code, out, _ = run_cli(capsys, "qb-check", "--case", "6", "--n", "8")
    assert code == 0


def test_qb_check_unsupported_case(capsys):
    code, _, err = run_cli(capsys, "qb-check", "--case", "3", "--n", "8")
    assert code == 3
    assert "stationary" in err


@pytest.mark.parametrize("grid", ["-5", "0"])
def test_qb_check_rejects_non_positive_grid(capsys, grid):
    code, out, err = run_cli(capsys, "qb-check", "--case", "8", "--n", "4", "--grid", grid)
    assert code == 2
    assert out == ""
    assert f"--grid must be a positive segment count, got {grid}" in err


@pytest.mark.parametrize("argv,name", [
    (("case-table", "--n", "4", "--j0", "inf"), "j0"),
    (("qb-check", "--case", "8", "--n", "4", "--j0", "inf"), "j0"),
    (("case-table", "--n", "4", "--j1n-bar", "nan"), "j1n_bar"),
    (("qb-check", "--case", "7", "--n", "4", "--j1n-bar", "nan"), "j1n_bar"),
])
def test_catalog_commands_reject_non_finite_arguments(capsys, argv, name):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"{name} must be finite" in err


def test_noise_zero_sigma_zero_mean(tmp_path, capsys):
    out = tmp_path / "noise.csv"
    code, _, _ = run_cli(capsys, "noise", "--n", "8", "--sigma-c", "0",
                         "--sigma-f", "0", "--trials", "5", "--seed", "1",
                         "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["mean_infidelity"]) == 0.0
    assert list(rows[0]) == ["n", "sigma_c", "sigma_f", "trials", "seed",
                             "mean_infidelity", "std_error"]


@pytest.mark.parametrize("flag,value", [
    ("--sigma-c", "inf"), ("--sigma-c", "nan"), ("--sigma-f", "-0.1"), ("--j0", "inf"),
])
def test_noise_rejects_bad_amplitudes_with_usage_code(capsys, flag, value):
    code, _, err = run_cli(capsys, "noise", "--n", "8", "--trials", "2", flag, value)
    assert code == 2
    assert "must be finite" in err


def test_noise_runs_are_bit_reproducible(tmp_path, capsys):
    args = ["noise", "--n", "10", "--sigma-c", "0.1", "--trials", "12",
            "--seed", "42"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_noise_sweep_and_fit_pipeline(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "noise", "--n", "12,24,48", "--sigma-c", "0.1",
                         "--trials", "60", "--seed", "9",
                         "--metric", "abs_one_minus_overlap", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["n"]) for r in rows] == [12, 24, 48]

    code, fit_out, _ = run_cli(capsys, "fit", "--input", str(out), "--model", "power")
    assert code == 0
    doc = json.loads(fit_out)
    assert doc["model"] == "power"
    assert -1.0 < doc["params"][0] < 0.0  # infidelity falls with system size


def test_fit_linear_on_synthetic_csv(tmp_path, capsys):
    path = tmp_path / "lin.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "sigma_c", "sigma_f", "trials",
                                                "seed", "mean_infidelity", "std_error"])
        writer.writeheader()
        for s in (0.05, 0.1, 0.15, 0.2):
            writer.writerow({"n": 100, "sigma_c": s, "sigma_f": 0.0, "trials": 1,
                             "seed": 0, "mean_infidelity": 2.0 * s, "std_error": 0.0})
    code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--model", "linear")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"][0] == pytest.approx(2.0, abs=1e-12)
    assert doc["params"][1] == pytest.approx(0.0, abs=1e-12)
    assert doc["r2"] == pytest.approx(1.0, abs=1e-12)


def test_fit_svg_and_manifest(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    with open(sweep, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n", "sigma_c", "sigma_f", "trials",
                                                "seed", "mean_infidelity", "std_error"])
        writer.writeheader()
        for n in (10, 20, 40, 80):
            writer.writerow({"n": n, "sigma_c": 0.1, "sigma_f": 0.0, "trials": 1,
                             "seed": 0, "mean_infidelity": 3.0 / np.sqrt(n),
                             "std_error": 0.0})
    out = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "fit", "--input", str(sweep), "--model", "power",
                         "--out", str(out), "--svg")
    assert code == 0
    assert json.loads(out.read_text())["params"][0] == pytest.approx(-0.5, abs=1e-12)
    svg = tmp_path / "fit.json.svg"
    assert svg.exists()
    assert svg.read_text().startswith("<svg")
    manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
    assert {o["path"] for o in manifest["outputs"]} == {str(out), str(svg)}


def test_speed_scan_trivial_target(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, "speed-scan", "--n", "4", "--target", "0",
                           "--seed", "1", "--out", str(out))
    assert code == 0
    summary = json.loads(err.splitlines()[-1])
    assert summary["t_star"] == 0.0


def test_speed_scan_rejects_bad_j0(capsys):
    code, _, err = run_cli(capsys, "speed-scan", "--n", "3", "--j0", "-1", "--target", "1e-3")
    assert code == 2
    assert "j0 must be finite and positive" in err


def test_verify_accepts_both_opt_prime_spellings(capsys):
    fidelities = []
    for name in ("opt-prime", "opt_prime"):
        code, out, _ = run_cli(capsys, "verify", "--n", "6", "--hamiltonian", name)
        assert code == 0
        fidelities.append(json.loads(out)["fidelity"])
    assert fidelities[0] == fidelities[1]


def test_noise_accepts_both_opt_prime_spellings(capsys):
    outs = {}
    for name in ("opt", "opt_prime", "opt-prime"):
        code, out, _ = run_cli(capsys, "noise", "--n", "6", "--sigma-c", "0.1",
                               "--trials", "4", "--seed", "2", "--hamiltonian", name)
        assert code == 0
        outs[name] = out
    assert outs["opt-prime"] == outs["opt_prime"] != outs["opt"]
