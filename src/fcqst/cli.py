"""Reproduction harness: ``fcqst`` subcommands with deterministic seeds.

Exit codes: 0 pass, 1 quantitative fail, 2 usage error, 3 unsupported case.
Every command writing an --out file also writes ``<out>.manifest.json``
recording the command line, seed, tool version, wall time, and SHA-256
digests of all produced files.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, brachistochrone, noise_mc, svgchart
from .effective3 import boundary_form_check, reduce_to_effective
from .exceptions import FcqstError, GridMismatchError, UnsupportedCaseError
from .propagator import evolve_constant, minimum_transfer_time, transfer_fidelity
from .spin_model import (HAMILTONIANS, SINGLE_EXCITATION, hamiltonian_builder,
                         project_single_excitation)
from .speed_search import min_time_bisection

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

# both spellings of each registry key; hamiltonian_builder reads "-" as "_"
HAMILTONIAN_CHOICES = sorted({s for key in HAMILTONIANS for s in (key, key.replace("_", "-"))})
VERIFY_THRESHOLD = 1.0 - 1e-9
QB_RESIDUAL_THRESHOLD = 1e-8


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: str, argv, seed, wall_time_s: float, outputs) -> None:
    manifest = {
        "command": list(argv),
        "seed": seed,
        "tool_version": __version__,
        "wall_time_s": round(wall_time_s, 3),
        "outputs": [{"path": p, "sha256": _sha256(p)} for p in outputs],
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_csv(path_or_none, fieldnames, rows) -> None:
    fh = open(path_or_none, "w", newline="", encoding="utf-8") if path_or_none else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if path_or_none:
            fh.close()


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def cmd_verify(args, argv) -> int:
    model = hamiltonian_builder(args.hamiltonian)(args.n, args.j0)
    t = minimum_transfer_time(args.n, args.j0)
    u_sector = evolve_constant(project_single_excitation(model), t)
    fidelity = transfer_fidelity(u_sector, SINGLE_EXCITATION)
    u_eff = evolve_constant(reduce_to_effective(model).sector_matrix(), t)
    angles = boundary_form_check(u_eff)
    passed = fidelity >= VERIFY_THRESHOLD
    report = {
        "n": args.n, "j0": args.j0, "hamiltonian": args.hamiltonian,
        "transfer_time": t, "fidelity": fidelity,
        "theta": angles.theta, "alpha": angles.alpha,
        "beta": angles.beta, "phi": angles.phi,
        "boundary_form_valid": angles.valid,
        "threshold": VERIFY_THRESHOLD, "pass": passed,
    }
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        _write_csv(None, list(report), [report])
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_case_table(args, argv) -> int:
    started = time.perf_counter()
    rows = brachistochrone.case_table_rows(args.n, args.j0, j1n_bar=args.j1n_bar)
    fields = ["case_id", "zero_multipliers", "zero_slacks", "has_minimum", "t_min"]
    _write_csv(args.out, fields, rows)
    if args.out:
        _write_manifest(args.out, argv, None, time.perf_counter() - started, [args.out])
    return EXIT_PASS


def cmd_qb_check(args, argv) -> int:
    if args.grid < 1:
        raise GridMismatchError(f"--grid must be a positive segment count, got {args.grid}")
    try:
        h, mult = brachistochrone.case_stationary_solution(
            args.case, args.n, args.j0, j1n_bar=args.j1n_bar)
    except UnsupportedCaseError as exc:
        print(f"qb-check: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    jbar = args.j0 if args.j1n_bar is None else args.j1n_bar
    t_min = brachistochrone.case_minimum_time(args.case, args.n, args.j0,
                                              j1n_bar=jbar if args.case == 7 else None)
    dt = t_min / args.grid
    segments = [(dt, h)] * args.grid
    report = brachistochrone.qb_residuals(segments, [mult] * args.grid, args.n, args.j0)
    reduces = args.case == 7 and abs(abs(jbar) - args.j0) <= 1e-12 * args.j0
    passed = report.max_residual <= QB_RESIDUAL_THRESHOLD
    out = {
        "case": args.case, "n": args.n, "j0": args.j0, "grid": args.grid,
        "qb_equation_residual": report.qb_equation,
        "normalization_residual": report.normalization,
        "constraint_residual": report.constraint,
        "complementarity_residual": report.complementarity,
        "threshold": QB_RESIDUAL_THRESHOLD, "pass": passed,
    }
    if reduces:
        out["note"] = "case 7 at saturating j1n_bar reduces to case 8"
    json.dump(out, sys.stdout, indent=2)
    print()
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_speed_scan(args, argv) -> int:
    started = time.perf_counter()
    fid_target = 1.0 - args.target if args.target > 0 else 0.0
    result = min_time_bisection(args.n, args.j0, fid_target, args.time_tol,
                                n_segments=args.segments, restarts=args.restarts,
                                seed=args.seed)
    rows = [{
        "T": f"{s.total_time:.12g}", "best_fidelity": f"{s.best_fidelity:.15g}",
        "evaluations": s.evaluations, "restarts_hit_bound": s.restarts_hit_bound,
    } for s in result.samples]
    fields = ["T", "best_fidelity", "evaluations", "restarts_hit_bound"]
    _write_csv(args.out, fields, rows)
    reference = minimum_transfer_time(args.n, args.j0)
    summary = {
        "t_star": result.t_star, "fid_target": fid_target,
        "reference_minimum": reference,
        "relative_gap": (result.t_star - reference) / reference,
        "monotonic_warning": result.monotonic_warning,
    }
    print(json.dumps(summary), file=sys.stderr)
    outputs = [args.out] if args.out else []
    if args.svg and args.out:
        svg_path = args.out + ".svg"
        xs = [s.total_time for s in result.samples]
        ys = [s.best_fidelity for s in result.samples]
        order = np.argsort(xs)
        svgchart.render_chart(svg_path, list(np.array(xs)[order]), list(np.array(ys)[order]),
                              xlabel="total time", ylabel="best fidelity",
                              title=f"bisection n={args.n}")
        outputs.append(svg_path)
    if args.out:
        _write_manifest(args.out, argv, args.seed, time.perf_counter() - started, outputs)
    return EXIT_PASS


def cmd_noise(args, argv) -> int:
    started = time.perf_counter()
    rows = []
    for n in args.n:
        for sc in args.sigma_c:
            for sf in args.sigma_f:
                cfg = noise_mc.NoiseConfig(n=n, j0=args.j0, sigma_c=sc, sigma_f=sf,
                                           trials=args.trials, seed=args.seed,
                                           hamiltonian=args.hamiltonian)
                stats = noise_mc.run_mc(cfg, definition=args.metric)
                rows.append({
                    "n": n, "sigma_c": sc, "sigma_f": sf, "trials": args.trials,
                    "seed": args.seed,
                    "mean_infidelity": f"{stats.mean_infidelity:.12g}",
                    "std_error": f"{stats.std_error:.12g}",
                })
    fields = ["n", "sigma_c", "sigma_f", "trials", "seed", "mean_infidelity", "std_error"]
    _write_csv(args.out, fields, rows)
    outputs = [args.out] if args.out else []
    if args.svg and args.out:
        svg_path = args.out + ".svg"
        if len(args.n) > 1:
            xs, xlabel = [float(r["n"]) for r in rows], "N"
        elif len(args.sigma_c) > 1:
            xs, xlabel = [float(r["sigma_c"]) for r in rows], "sigma_c"
        else:
            xs, xlabel = [float(r["sigma_f"]) for r in rows], "sigma_f"
        ys = [float(r["mean_infidelity"]) for r in rows]
        svgchart.render_chart(svg_path, xs, ys, xlabel=xlabel, ylabel="mean infidelity",
                              logx=len(args.n) > 1, logy=len(args.n) > 1,
                              title=f"noise sweep ({args.metric})")
        outputs.append(svg_path)
    if args.out:
        _write_manifest(args.out, argv, args.seed, time.perf_counter() - started, outputs)
    return EXIT_PASS


def cmd_fit(args, argv) -> int:
    started = time.perf_counter()
    with open(args.input, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        print("fit: input CSV is empty", file=sys.stderr)
        return EXIT_USAGE
    if args.model == "power":
        xcol = "n"
    else:
        sc = {float(r["sigma_c"]) for r in rows}
        xcol = "sigma_c" if len(sc) > 1 else "sigma_f"
    points = [(float(r[xcol]), float(r["mean_infidelity"])) for r in rows]
    fit = (noise_mc.fit_power_law if args.model == "power" else noise_mc.fit_linear)(points)
    doc = fit.to_json_dict()
    text = json.dumps(doc, indent=2) + "\n"
    outputs = []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        outputs.append(args.out)
    sys.stdout.write(text)
    if args.svg and args.out:
        svg_path = args.out + ".svg"
        xs = sorted(p[0] for p in points)
        if args.model == "power":
            exp_, pre = fit.params
            fys = [pre * x ** exp_ for x in xs]
        else:
            slope, intercept = fit.params
            fys = [slope * x + intercept for x in xs]
        svgchart.render_chart(svg_path, [p[0] for p in points], [p[1] for p in points],
                              fit=(xs, fys), xlabel=xcol, ylabel="mean infidelity",
                              logx=args.model == "power", logy=args.model == "power",
                              title=f"{args.model} fit, r2={fit.r2:.4f}")
        outputs.append(svg_path)
    if args.out:
        _write_manifest(args.out, argv, None, time.perf_counter() - started, outputs)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcqst",
        description="Time-optimal state transfer on fully-connected networks: "
                    "verification and reproduction harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check perfect transfer at the optimal time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j0", type=float, default=1.0)
    p.add_argument("--hamiltonian", choices=HAMILTONIAN_CHOICES, default="opt")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("case-table", help="minimum-time catalog as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j0", type=float, default=1.0)
    p.add_argument("--j1n-bar", type=float, default=None, dest="j1n_bar")
    p.add_argument("--out", default=None)

    p = sub.add_parser("qb-check", help="stationarity residuals of a case solution")
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j0", type=float, default=1.0)
    p.add_argument("--j1n-bar", type=float, default=None, dest="j1n_bar")
    p.add_argument("--grid", type=int, default=1000)

    p = sub.add_parser("speed-scan", help="bisect for the empirical minimum time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j0", type=float, default=1.0)
    p.add_argument("--segments", type=int, default=8)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--target", type=float, required=True,
                   help="target infidelity (0 requests the trivial zero-fidelity target)")
    p.add_argument("--time-tol", type=float, default=1e-3, dest="time_tol")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("noise", help="seeded disorder Monte Carlo sweep")
    p.add_argument("--n", type=_int_list, required=True,
                   help="qubit count or comma list for a size sweep")
    p.add_argument("--j0", type=float, default=1.0)
    p.add_argument("--sigma-c", type=_float_list, default=[0.0], dest="sigma_c")
    p.add_argument("--sigma-f", type=_float_list, default=[0.0], dest="sigma_f")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hamiltonian", choices=HAMILTONIAN_CHOICES, default="opt")
    p.add_argument("--metric", choices=sorted(noise_mc.INFIDELITY_DEFINITIONS),
                   default=noise_mc.DEFAULT_DEFINITION)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("fit", help="fit a noise sweep CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--model", choices=["power", "linear"], required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true")
    return parser


_HANDLERS = {
    "verify": cmd_verify,
    "case-table": cmd_case_table,
    "qb-check": cmd_qb_check,
    "speed-scan": cmd_speed_scan,
    "noise": cmd_noise,
    "fit": cmd_fit,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return _HANDLERS[args.command](args, argv)
    except FcqstError as exc:
        print(f"fcqst {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"fcqst {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
