"""Reproduction harness: ``fcqst`` subcommands with deterministic seeds.

Exit codes: 0 pass, 1 quantitative fail, 2 usage error (including a
non-finite or negative speed-scan --target, an empty comma list and a
malformed fit CSV), 3 unsupported case (any command).  Handlers compute and
write their primary output; ``main`` runs them, and for every --out command
that exits 0 writes ``<out>.manifest.json``: command line, seed, tool
version, wall time, and SHA-256 digests of --out and, with --svg, its chart.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from contextlib import nullcontext

from . import __version__, brachistochrone, noise_mc, svgchart
from .effective3 import boundary_form_check, reduce_to_effective
from .exceptions import (FcqstError, GridMismatchError, InvalidSizeError,
                         UnsupportedCaseError)
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
    with (open(path_or_none, "w", newline="", encoding="utf-8") if path_or_none
          else nullcontext(sys.stdout)) as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _comma_list(kind):
    """argparse type: a nonempty comma list of ``kind`` values (empty tokens skipped)."""
    def parse(text: str) -> list:
        if values := [kind(tok) for tok in text.split(",") if tok]:
            return values
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _svg_path(out: str) -> str:
    return out + ".svg"


def _chart(args, x, y, **labels) -> None:
    """Render the --svg chart beside --out; it needs both flags."""
    if args.svg and args.out:
        svgchart.render_chart(_svg_path(args.out), x, y, **labels)


def _column(rows, name: str) -> list[float]:
    """The floats of one CSV column, or FcqstError if one is missing or not finite."""
    try:
        values = [float(row[name]) for row in rows]
    except (KeyError, TypeError, ValueError):
        values = None
    if values is None or not all(map(math.isfinite, values)):
        raise FcqstError(f"input CSV needs a column {name!r} of finite numbers")
    return values


def cmd_verify(args) -> int:
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


def cmd_case_table(args) -> int:
    rows = brachistochrone.case_table_rows(args.n, args.j0, j1n_bar=args.j1n_bar)
    fields = ["case_id", "zero_multipliers", "zero_slacks", "has_minimum", "t_min"]
    _write_csv(args.out, fields, rows)
    return EXIT_PASS


def cmd_qb_check(args) -> int:
    if args.grid < 1:
        raise GridMismatchError(f"--grid must be a positive segment count, got {args.grid}")
    h, mult = brachistochrone.case_stationary_solution(
        args.case, args.n, args.j0, j1n_bar=args.j1n_bar)
    t_min = brachistochrone.case_minimum_time(args.case, args.n, args.j0, j1n_bar=h.j1n.real)
    dt = t_min / args.grid
    segments = [(dt, h)] * args.grid
    report = brachistochrone.qb_residuals(segments, [mult] * args.grid, args.n, args.j0)
    reduces = args.case == 7 and mult == brachistochrone.stationary_multipliers(
        8, args.n, args.j0)
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


def cmd_speed_scan(args) -> int:
    if not (math.isfinite(args.target) and args.target >= 0):
        raise InvalidSizeError(
            f"--target must be a finite nonnegative infidelity, got {args.target}")
    fid_target = 1.0 - args.target if args.target > 0 else 0.0
    result = min_time_bisection(args.n, args.j0, fid_target, args.time_tol,
                                n_segments=args.segments, restarts=args.restarts,
                                seed=args.seed,
                                controls="real" if args.real_couplings else "complex")
    rows = [{
        "T": f"{s.total_time:.12g}", "best_fidelity": f"{s.best_fidelity:.15g}",
        "evaluations": s.evaluations, "restarts_hit_bound": s.restarts_hit_bound,
    } for s in result.samples]
    fields = ["T", "best_fidelity", "evaluations", "restarts_hit_bound"]
    _write_csv(args.out, fields, rows)
    reference = minimum_transfer_time(args.n, args.j0)
    summary = {
        "t_star": result.t_star, "fid_target": fid_target,
        "real_couplings": args.real_couplings, "reference_minimum": reference,
        "relative_gap": (result.t_star - reference) / reference,
        "monotonic_warning": result.monotonic_warning,
    }
    print(json.dumps(summary), file=sys.stderr)
    samples = sorted(result.samples, key=lambda s: s.total_time)
    _chart(args, [s.total_time for s in samples], [s.best_fidelity for s in samples],
           xlabel="total time", ylabel="best fidelity", title=f"bisection n={args.n}")
    return EXIT_PASS


def cmd_noise(args) -> int:
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
    xcol = "n" if len(args.n) > 1 else "sigma_c" if len(args.sigma_c) > 1 else "sigma_f"
    xs, ys = [float(r[xcol]) for r in rows], [float(r["mean_infidelity"]) for r in rows]
    log = len(args.n) > 1 and min(ys) > 0  # a noiseless sweep has zero infidelities
    _chart(args, xs, ys, xlabel="N" if xcol == "n" else xcol, ylabel="mean infidelity",
           logx=log, logy=log, title=f"noise sweep ({args.metric})")
    return EXIT_PASS


def cmd_fit(args) -> int:
    with open(args.input, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    power = args.model == "power"
    xcol = "n" if power else (
        "sigma_c" if len(set(_column(rows, "sigma_c"))) > 1 else "sigma_f")
    xs, ys = _column(rows, xcol), _column(rows, "mean_infidelity")
    fit = (noise_mc.fit_power_law if power else noise_mc.fit_linear)(list(zip(xs, ys)))
    text = json.dumps(fit.to_json_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    line_x = sorted(xs)
    a, b = fit.params
    line_y = [b * x ** a for x in line_x] if power else [a * x + b for x in line_x]
    _chart(args, xs, ys, fit=(line_x, line_y), xlabel=xcol, ylabel="mean infidelity",
           logx=power, logy=power, title=f"{args.model} fit, r2={fit.r2:.4f}")
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
    p.add_argument("--real-couplings", action="store_true", dest="real_couplings",
                   help="search the real-coupling class (criterion 10) instead of complex")
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("noise", help="seeded disorder Monte Carlo sweep")
    p.add_argument("--n", type=_comma_list(int), required=True,
                   help="qubit count or comma list for a size sweep")
    p.add_argument("--j0", type=float, default=1.0)
    p.add_argument("--sigma-c", type=_comma_list(float), default=[0.0], dest="sigma_c")
    p.add_argument("--sigma-f", type=_comma_list(float), default=[0.0], dest="sigma_f")
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
    started = time.perf_counter()
    try:
        code = _HANDLERS[args.command](args)
        out = getattr(args, "out", None)
        if out and code == EXIT_PASS:
            outputs = [out, _svg_path(out)] if getattr(args, "svg", False) else [out]
            _write_manifest(out, argv, getattr(args, "seed", None),
                            time.perf_counter() - started, outputs)
        return code
    except (FcqstError, OSError) as exc:
        print(f"fcqst {args.command}: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedCaseError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
