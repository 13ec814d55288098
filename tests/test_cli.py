import csv
import json
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import fcqst
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


@pytest.mark.parametrize("flag", [False, True])
def test_speed_scan_real_couplings_reaches_the_search(tmp_path, capsys, monkeypatch, flag):
    from fcqst import speed_search

    classes, imag_parts = [], []
    real_optimize = speed_search.optimize_pulse

    def spy(*args, controls="complex", **kwargs):
        res = real_optimize(*args, controls=controls, **kwargs)
        classes.append(controls)
        p = res.best_pulse
        imag_parts.append(max(np.abs(c.imag).max() for c in (p.j1a, p.jan, p.j1n)))
        return res

    monkeypatch.setattr(speed_search, "optimize_pulse", spy)
    out = tmp_path / "scan.csv"
    argv = ["speed-scan", "--n", "3", "--target", "1e-3", "--segments", "1",
            "--restarts", "1", "--time-tol", "1.0", "--out", str(out)]
    if flag:
        argv.append("--real-couplings")
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert classes and set(classes) == {"real" if flag else "complex"}
    # the real class returns real couplings; the complex one does not
    assert bool(max(imag_parts) == 0.0) is flag
    assert json.loads(err.splitlines()[-1])["real_couplings"] is flag
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert ("--real-couplings" in manifest["command"]) is flag


@pytest.mark.parametrize("sizes", [["--n", "2"], ["--n", "4", "--segments", "0", "--restarts=-3"]])
def test_speed_scan_rejects_bad_sizes_at_trivial_target(capsys, sizes):
    # both used to exit 0 with t_star = 0
    code, stdout, err = run_cli(capsys, "speed-scan", *sizes, "--target", "0")
    assert code == 2
    assert stdout == ""
    assert_usage_error(err, "speed-scan", "n")


@pytest.mark.parametrize("n", ["0", "-5", "2"])
def test_noise_rejects_transfer_size_below_three(capsys, n):
    # the noiseless shortcut used to exit 0 with mean_infidelity 0
    code, stdout, err = run_cli(capsys, "noise", f"--n={n}", "--trials", "3")
    assert code == 2
    assert stdout == ""
    assert_usage_error(err, "noise", "n >= 3")


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


SWEEP_FIELDS = ["n", "sigma_c", "sigma_f", "trials", "seed", "mean_infidelity", "std_error"]


def _write_sweep(path, rows, fields=SWEEP_FIELDS):
    """A noise-sweep CSV; missing fields of a row default to the sweep's usual values."""
    defaults = {"n": 100, "sigma_c": 0.1, "sigma_f": 0.0, "trials": 1, "seed": 0,
                "mean_infidelity": 0.01, "std_error": 0.0}
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({**defaults, **row})


POWER_ROWS = [{"n": n, "mean_infidelity": 3.0 / np.sqrt(n)} for n in (10, 20, 40, 80)]

MANIFEST_CASES = {
    "case-table": ["case-table", "--n", "8", "--out", "{out}"],
    "speed-scan": ["speed-scan", "--n", "3", "--target", "1e-3", "--segments", "1",
                   "--restarts", "1", "--time-tol", "1.0", "--seed", "4",
                   "--out", "{out}", "--svg"],
    "noise": ["noise", "--n", "8,16", "--sigma-c", "0.1", "--trials", "4", "--seed", "3",
              "--out", "{out}", "--svg"],
    # every mean infidelity is 0, which used to crash the log-scale chart
    "noise-noiseless": ["noise", "--n", "5,6,7", "--trials", "2", "--seed", "0",
                        "--out", "{out}", "--svg"],
    "fit": ["fit", "--input", "{sweep}", "--model", "power", "--out", "{out}", "--svg"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_lists_exactly_the_files_written(tmp_path, capsys, command):
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, POWER_ROWS)
    out = str(tmp_path / "result")
    argv = [a.format(out=out, sweep=sweep) for a in MANIFEST_CASES[command]]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    with open(out + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert list(manifest) == ["command", "seed", "tool_version", "wall_time_s", "outputs"]
    assert manifest["command"] == argv
    assert manifest["seed"] == (int(argv[argv.index("--seed") + 1]) if "--seed" in argv
                                else None)
    expected = [out, out + ".svg"] if "--svg" in argv else [out]
    assert [o["path"] for o in manifest["outputs"]] == expected
    for entry in manifest["outputs"]:
        with open(entry["path"], "rb") as fh:
            assert entry["sha256"] == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("command", ["fit", "noise"])
def test_no_manifest_after_a_nonzero_exit(tmp_path, capsys, command):
    sweep = tmp_path / "short.csv"
    _write_sweep(sweep, POWER_ROWS[:2])
    out = tmp_path / "result"
    argv = {"fit": ["fit", "--input", str(sweep), "--model", "linear"],
            "noise": ["noise", "--n", "8", "--sigma-c", "nan"]}[command]
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"fcqst {command}: ")
    assert not (tmp_path / "result.manifest.json").exists()


def assert_usage_error(err, command, name):
    assert f"fcqst {command}: " in err
    assert name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "-0.5"])
def test_speed_scan_rejects_bad_target(tmp_path, capsys, target):
    out = tmp_path / "scan.csv"
    code, stdout, err = run_cli(capsys, "speed-scan", "--n", "3", f"--target={target}",
                                "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert_usage_error(err, "speed-scan", "--target")
    assert not out.exists()


def test_speed_scan_rejects_infinite_time_tol(tmp_path, capsys):
    # used to exit 0 with t_star at twice the reference after one probe
    out = tmp_path / "scan.csv"
    code, stdout, err = run_cli(capsys, "speed-scan", "--n", "3", "--target", "1e-3",
                                "--time-tol", "inf", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert_usage_error(err, "speed-scan", "time_tol")
    assert not out.exists()


def test_speed_scan_trivial_target_chart_has_bare_axes(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "speed-scan", "--n", "4", "--target", "0",
                         "--out", str(out), "--svg")
    assert code == 0
    assert list(csv.DictReader(out.read_text().splitlines())) == []
    svg = (tmp_path / "scan.csv.svg").read_text()
    assert svg.startswith("<svg") and "<line" in svg and "<circle" not in svg
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert [o["path"] for o in manifest["outputs"]] == [str(out), str(out) + ".svg"]


@pytest.mark.parametrize("model", ["power", "linear"])
def test_fit_rejects_non_finite_infidelity(tmp_path, capsys, model):
    sweep = tmp_path / "sweep.csv"
    rows = [{"n": n, "sigma_c": s, "mean_infidelity": 0.01 * n * s}
            for n, s in ((10, 0.05), (20, 0.1), (40, 0.15), (80, 0.2))]
    rows[2]["mean_infidelity"] = "nan"
    _write_sweep(sweep, rows)
    code, out, err = run_cli(capsys, "fit", "--input", str(sweep), "--model", model)
    assert code == 2
    assert out == ""
    assert_usage_error(err, "fit", "mean_infidelity")


@pytest.mark.parametrize("model,column", [
    ("power", "n"), ("power", "mean_infidelity"),
    ("linear", "sigma_c"), ("linear", "mean_infidelity"),
])
def test_fit_names_a_missing_column(tmp_path, capsys, model, column):
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, POWER_ROWS, fields=[f for f in SWEEP_FIELDS if f != column])
    code, _, err = run_cli(capsys, "fit", "--input", str(sweep), "--model", model)
    assert code == 2
    assert_usage_error(err, "fit", repr(column))


def test_fit_names_a_non_numeric_cell(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    rows = [dict(r) for r in POWER_ROWS]
    rows[1]["n"] = "twenty"
    _write_sweep(sweep, rows)
    code, _, err = run_cli(capsys, "fit", "--input", str(sweep), "--model", "power")
    assert code == 2
    assert_usage_error(err, "fit", "'n'")


def test_fit_empty_csv_needs_three_points(tmp_path, capsys):
    sweep = tmp_path / "empty.csv"
    _write_sweep(sweep, [])
    code, _, err = run_cli(capsys, "fit", "--input", str(sweep), "--model", "power")
    assert code == 2
    assert_usage_error(err, "fit", "needs >= 3 points, got 0")


@pytest.mark.parametrize("flag", ["--n", "--sigma-c", "--sigma-f"])
def test_noise_rejects_empty_comma_list(tmp_path, capsys, flag):
    argv = ["noise", "--trials", "2", f"{flag}=,"]
    if flag != "--n":
        argv += ["--n", "5"]
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out), "--svg")
    assert code == 2
    assert stdout == ""
    assert_usage_error(err, "noise", flag)
    assert not out.exists()


def test_qb_check_unsupported_case_message(capsys):
    code, out, err = run_cli(capsys, "qb-check", "--case", "3", "--n", "8")
    assert code == 3
    assert out == ""
    assert_usage_error(err, "qb-check", "stationary")


@pytest.mark.parametrize("argv", [
    ("fit", "--input", "{tmp}/missing.csv", "--model", "power"),
    ("case-table", "--n", "8", "--out", "{tmp}/missing/table.csv"),
])
def test_os_errors_exit_with_usage_code(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert_usage_error(err, argv[0], "missing")


def test_cli_imports_no_scipy():
    # numpy is the only declared runtime dependency, though scipy may be installed
    path = [os.path.dirname(os.path.dirname(fcqst.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = "import sys, fcqst.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
