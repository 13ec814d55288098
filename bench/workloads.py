"""The benchmark's four workloads: op lists, timed calls and output checks.

An op is one timed call (or, on oracle-verify, one oracle computation) into
the public functions of fcqst.  Each workload yields its ops one period at a
time; a period is the smallest op list that contains every op shape of the
workload once, so rates taken over whole periods do not depend on where a
run stops.  All inputs come from ``random.Random`` seeded with the workload
name and seed, never from fcqst's own generator, so a change to
``fcqst.rng`` cannot change what the benchmark asks for.

``run`` is the timed part.  ``check`` runs afterwards, untimed: it verifies
the op's output and, in a traced run, makes the extra layer calls the
per-layer metrics need.  Every call into fcqst sits in a span named after
the function it calls.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import random

import numpy as np

from fcqst import brachistochrone, cli, effective3, noise_mc, propagator, rng
from fcqst import speed_search, spin_model

J0 = 1.0
BUILDERS = {"opt": spin_model.build_h_opt, "opt_prime": spin_model.build_h_opt_prime}
GAP_TOL = 1e-10          # sector-oracle and closed-form agreement (criteria 4, 6)
COMMUTATOR_TOL = 1e-8    # | |<[sy_N(T), sx_1]>| - 2 | (criterion 7)
RESIDUAL_TOL = 1e-8      # stationarity residuals (criterion 5)
TRIAL_TOL = 1e-10        # one noise trial against an independent recompute
FIDELITY_TOL = 1e-12     # optimizer fidelity against an independent recompute
BOUND_TOL = 1e-12        # coupling amplitudes over their bounds
CLI_REPEATS = 5
DECOMPOSE_REPEATS = 3


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    args: dict


def _fresh_seed(rnd: random.Random) -> int:
    return rnd.randrange(1 << 31)


def _span_call(tr, name, fn, *args, **attrs):
    with tr.span(name, **attrs):
        return fn(*args)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.rnd = random.Random(f"{self.name}:{seed}")

    def period(self) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def coverage_ops(self) -> list[Op]:
        """Ops that another workload's traced run borrows for its missing layers."""
        raise NotImplementedError

    def run(self, op: Op, tr):
        raise NotImplementedError

    def check(self, op: Op, result, tr) -> list[str]:
        raise NotImplementedError


class _Noise(Workload):
    """Shared op, check and decomposition of the two Monte Carlo workloads."""

    sizes: tuple[int, ...] = ()
    sigma_f = 0.0
    trials = 0
    definition = noise_mc.DEFAULT_DEFINITION

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._ideal: dict[int, np.ndarray] = {}

    def _op(self, n, trials, seed) -> Op:
        cfg = noise_mc.NoiseConfig(n=n, j0=J0, sigma_c=0.1, sigma_f=self.sigma_f,
                                   trials=trials, seed=seed)
        return Op("run_mc", {"cfg": cfg})

    def period(self):
        sizes = list(self.sizes)
        self.rnd.shuffle(sizes)
        return [self._op(n, self.trials, _fresh_seed(self.rnd)) for n in sizes]

    def warmup_ops(self):
        return [self._op(n, 1, _fresh_seed(self.rnd)) for n in self.sizes]

    def coverage_ops(self):
        return [self._op(min(self.sizes), self.trials, _fresh_seed(self.rnd))]

    def run(self, op, tr):
        cfg = op.args["cfg"]
        return _span_call(tr, "noise_mc.run_mc", noise_mc.run_mc, cfg, self.definition,
                          n=cfg.n, trials=cfg.trials)

    def _ideal_column(self, cfg) -> np.ndarray:
        """exp(-i H_base t)|phi_1>, shared by every op of one size."""
        if cfg.n not in self._ideal:
            base = spin_model.project_single_excitation(cfg.base_model())
            u = propagator.evolve_constant(base, cfg.transfer_time())
            self._ideal[cfg.n] = u[:, 0].copy()
        return self._ideal[cfg.n]

    def check(self, op, stats, tr):
        cfg = op.args["cfg"]
        errors = []
        values = [stats.mean_infidelity, stats.std_error]
        values += [v for pair in stats.all_means.values() for v in pair]
        if not all(math.isfinite(v) for v in values):
            errors.append(f"non-finite mean or standard error at n={cfg.n}")
        if stats.trials != cfg.trials:
            errors.append(f"{stats.trials} trials reported, {cfg.trials} asked")

        # Trial 0 of the op's ensemble: substreams (seed, trial) do not depend
        # on the trial count, so the one-trial ensemble reproduces it exactly.
        one = _span_call(tr, "noise_mc.run_mc", noise_mc.run_mc,
                         dataclasses.replace(cfg, trials=1), self.definition,
                         n=cfg.n, trials=1)
        noisy = _span_call(tr, "noise_mc.sample_noisy_hamiltonian",
                           noise_mc.sample_noisy_hamiltonian, cfg, 0, n=cfg.n)
        u = _span_call(tr, "propagator.evolve_constant", propagator.evolve_constant,
                       noisy, cfg.transfer_time(), kind="noisy", n=cfg.n)
        overlap = complex(np.vdot(self._ideal_column(cfg), u[:, 0]))
        for name, fn in noise_mc.INFIDELITY_DEFINITIONS.items():
            gap = abs(float(fn(np.array([overlap]))[0]) - one.all_means[name][0])
            if not gap <= TRIAL_TOL:
                errors.append(f"trial 0 {name} differs from recompute by {gap:.2e}")
        errors += self._bound_errors(stats)

        if tr.enabled:
            self._decompose(cfg, tr)
        return errors

    def _bound_errors(self, stats) -> list[str]:
        return []

    def _decompose(self, cfg, tr):
        """The layer calls run_mc makes internally, made again from outside.

        Build and sample alternate DECOMPOSE_REPEATS times: assembly is
        derived from their differences, and each call jitters by more than
        the assembly costs.
        """
        pairs = cfg.n * (cfg.n - 1) // 2
        for trial in range(cfg.trials):
            key = rng.derive_key(cfg.seed, trial, 0)
            with tr.span("rng.normals", count=pairs, trial=trial):
                rng.normals(key, 0, pairs)
        for _ in range(DECOMPOSE_REPEATS):
            with tr.span("spin_model.build", n=cfg.n):
                spin_model.project_single_excitation(cfg.base_model())
            _span_call(tr, "noise_mc.sample_noisy_hamiltonian",
                       noise_mc.sample_noisy_hamiltonian, cfg, 0, n=cfg.n)


class NoiseN500(_Noise):
    name = "noise-n500"
    sizes = (500,)
    sigma_f = 0.1
    trials = 20

    def _bound_errors(self, stats):
        # criterion 8: both phase-blind and phase-sensitive means clear 0.5%
        errors = []
        for name in ("one_minus_abs_overlap", "abs_one_minus_overlap"):
            mean, se = stats.all_means[name]
            if not mean <= 0.005 + 3 * se:
                errors.append(f"criterion-8 bound missed: {name} = {mean:.3e} +- {se:.1e}")
        return errors


class NoiseSmall(_Noise):
    name = "noise-small"
    sizes = (25, 50, 100)
    trials = 200
    definition = "abs_one_minus_overlap"

    def check(self, op, stats, tr):
        errors = super().check(op, stats, tr)
        cfg = op.args["cfg"]
        if tr.enabled and cfg.n == min(self.sizes):
            errors += self._cli_check(cfg, stats, tr)
        return errors

    def _cli_check(self, cfg, stats, tr) -> list[str]:
        """``fcqst noise`` on the op's arguments; its row must equal the op's.

        The CLI and a bare ``run_mc`` alternate CLI_REPEATS times so their
        fastest calls can be compared: the overhead is a few ms on a call
        whose run-to-run jitter is larger than that.
        """
        out = os.path.join(self.out_dir, f"cli-noise-{os.getpid()}.csv")
        argv = ["noise", "--n", str(cfg.n), "--sigma-c", repr(cfg.sigma_c),
                "--trials", str(cfg.trials), "--seed", str(cfg.seed),
                "--metric", self.definition, "--out", out]
        try:
            for _ in range(CLI_REPEATS):
                code = _span_call(tr, "cli.main", cli.main, argv, n=cfg.n)
                if code != 0:
                    return [f"fcqst noise exited with {code}"]
                _span_call(tr, "noise_mc.run_mc", noise_mc.run_mc, cfg, self.definition,
                           n=cfg.n, trials=cfg.trials, cli_reference=True)
            with open(out, newline="", encoding="utf-8") as fh:
                row = next(csv.DictReader(fh))
        finally:
            for path in (out, out + ".manifest.json"):
                if os.path.exists(path):
                    os.remove(path)
        mean = float(row["mean_infidelity"])
        if not math.isclose(mean, stats.mean_infidelity, rel_tol=1e-11):
            return [f"fcqst noise reported {mean!r}, run_mc {stats.mean_infidelity!r}"]
        return []


class PulseSearch(Workload):
    name = "pulse-search"
    sizes = (3, 4)
    fractions = (0.92, 0.94, 0.96, 0.98, 1.00, 1.05, 1.10, 1.20)
    segments = 8
    restarts = 4
    max_iters = 150
    stop_fidelity = 1.0 - 1e-6

    def _op(self, n, f, restarts, max_iters) -> Op:
        return Op("optimize_pulse", {"n": n, "f": f, "seed": _fresh_seed(self.rnd),
                                     "restarts": restarts, "max_iters": max_iters})

    def period(self):
        ops = [self._op(n, f, self.restarts, self.max_iters)
               for n in self.sizes for f in self.fractions]
        self.rnd.shuffle(ops)
        return ops

    def warmup_ops(self):
        return [self._op(n, 1.0, 1, 2) for n in self.sizes]

    def coverage_ops(self):
        # the whole probe mix, so reached_frac and hit_bound keep their meaning
        return self.period()

    def run(self, op, tr):
        a = op.args
        t = a["f"] * propagator.minimum_transfer_time(a["n"], J0)
        with tr.span("speed_search.optimize_pulse", n=a["n"], f=a["f"]) as span:
            res = speed_search.optimize_pulse(
                a["n"], J0, t, self.segments, restarts=a["restarts"], seed=a["seed"],
                max_iters=a["max_iters"], stop_fidelity=self.stop_fidelity)
            span.set(evals=res.evaluations, hit_bound=res.restarts_hit_bound,
                     reached=res.best_fidelity >= self.stop_fidelity)
        return res

    def check(self, op, res, tr):
        a = op.args
        pulse = res.best_pulse
        errors = []
        worst = max(pulse.bound_report().values())
        if not worst <= 1.0 + BOUND_TOL:
            errors.append(f"coupling at {worst!r} of its bound")
        schedule = _span_call(tr, "speed_search.pulse_to_schedule",
                              speed_search.pulse_to_schedule, pulse)
        u = _span_call(tr, "propagator.evolve_schedule", propagator.evolve_schedule, schedule)
        fid = propagator.transfer_fidelity(u, spin_model.EFFECTIVE3)
        if not abs(fid - res.best_fidelity) <= FIDELITY_TOL:
            errors.append(f"fidelity {res.best_fidelity!r}, recompute {fid!r}")
        if a["f"] >= 1.0 and not res.best_fidelity >= self.stop_fidelity:
            errors.append(f"n={a['n']} f={a['f']} missed the target: {res.best_fidelity!r}")
        if tr.enabled:
            mats = pulse.matrices()
            durations = np.full(pulse.n_segments, pulse.total_time / pulse.n_segments)
            us = _span_call(tr, "propagator.segment_propagators",
                            propagator.segment_propagators, mats, durations)
            _span_call(tr, "propagator.ordered_product", propagator.ordered_product, us)
        return errors


class OracleVerify(Workload):
    name = "oracle-verify"
    sizes = tuple(range(3, 12))
    lr_n = 10
    qb_grid = 1000
    case_points = 20

    def _sector_op(self, n, ham) -> Op:
        # mid-transfer times keep every amplitude generic
        return Op("sector", {"n": n, "ham": ham, "u": self.rnd.uniform(0.5, 1.0)})

    def _lr_op(self) -> Op:
        model = BUILDERS[self.rnd.choice(sorted(BUILDERS))](self.lr_n, J0)
        return Op("lr", {"model": model})

    def _qb_op(self) -> Op:
        n = self.rnd.randint(3, 16)
        h, mult = brachistochrone.case_stationary_solution(8, n, J0)
        t8 = brachistochrone.case_minimum_time(8, n, J0)
        phi = self.rnd.uniform(-math.pi, math.pi)
        jbar = self.rnd.uniform(0.2, 1.0) * J0
        cases = []
        for case, kw in ((6, {"phi_1n": phi}), (7, {"j1n_bar": jbar})):
            h_case = brachistochrone.case_hamiltonian(case, n, J0, **kw).sector_matrix()
            t_min = brachistochrone.case_minimum_time(case, n, J0, j1n_bar=kw.get("j1n_bar"))
            ts = sorted(self.rnd.uniform(0.0, 2.0 * t_min) for _ in range(self.case_points))
            cases.append((case, kw, h_case, ts))
        return Op("qb", {"n": n, "segments": [(t8 / self.qb_grid, h)] * self.qb_grid,
                         "mults": [mult] * self.qb_grid, "cases": cases})

    def period(self):
        sector = [self._sector_op(n, ham) for n in self.sizes for ham in sorted(BUILDERS)]
        self.rnd.shuffle(sector)
        ops = []
        for op in sector:
            ops += [op, self._lr_op(), self._qb_op()]
        return ops

    def warmup_ops(self):
        return [self._sector_op(9, "opt"), self._lr_op(), self._qb_op()]

    def coverage_ops(self):
        return [self._sector_op(10, "opt"), self._sector_op(11, "opt"),
                self._lr_op(), self._qb_op()]

    def run(self, op, tr):
        return getattr(self, "_run_" + op.kind)(op.args, tr)

    def _run_sector(self, a, tr):
        n = a["n"]
        t = a["u"] * propagator.minimum_transfer_time(n, J0)
        with tr.span("spin_model.build", n=n):
            model = BUILDERS[a["ham"]](n, J0)
            sector = spin_model.project_single_excitation(model)
        full = _span_call(tr, "spin_model.project_full_space",
                          spin_model.project_full_space, model, n=n)
        u_full = _span_call(tr, "propagator.evolve_constant", propagator.evolve_constant,
                            full, t, kind="full", n=n)
        u_sect = _span_call(tr, "propagator.evolve_constant", propagator.evolve_constant,
                            sector, t, kind="sector", n=n)
        eff = _span_call(tr, "effective3.reduce_to_effective",
                         effective3.reduce_to_effective, model, n=n)
        u_eff = _span_call(tr, "propagator.evolve_constant", propagator.evolve_constant,
                           eff.sector_matrix(), t, kind="effective3", n=n)
        u_eff = u_eff * np.exp(-1j * eff.frame_shift * t)
        return u_full[1 << (n - 1), 1], u_sect[-1, 0], u_eff[2, 0]

    def _run_lr(self, a, tr):
        model = a["model"]
        return _span_call(tr, "propagator.lr_commutator_check", propagator.lr_commutator_check,
                          model, propagator.minimum_transfer_time(model.n, J0), n=model.n)

    def _run_qb(self, a, tr):
        report = _span_call(tr, "brachistochrone.qb_residuals", brachistochrone.qb_residuals,
                            a["segments"], a["mults"], a["n"], J0, grid=self.qb_grid)
        worst = 0.0
        for case, kw, h_case, ts in a["cases"]:
            for t in ts:
                with tr.span("brachistochrone.case_unitary", case=case):
                    closed = brachistochrone.case_unitary(case, a["n"], J0, t, **kw)
                numeric = _span_call(tr, "propagator.evolve_constant",
                                     propagator.evolve_constant, h_case, t, kind="effective3")
                worst = max(worst, float(np.abs(closed - numeric).max()))
        return report.max_residual, worst

    def check(self, op, result, tr):
        if op.kind == "sector":
            amp_full, amp_sect, amp_eff = result
            gap = max(abs(amp_full - amp_sect), abs(amp_sect - amp_eff))
            ok = gap <= GAP_TOL
            return [] if ok else [f"sector gap {gap:.2e} at n={op.args['n']}"]
        if op.kind == "lr":
            gap = abs(abs(result) - 2.0)
            return [] if gap <= COMMUTATOR_TOL else [f"commutator off 2 by {gap:.2e}"]
        residual, worst = result
        errors = []
        if not residual <= RESIDUAL_TOL:
            errors.append(f"case-8 residual {residual:.2e}")
        if not worst <= GAP_TOL:
            errors.append(f"case_unitary off evolve_constant by {worst:.2e}")
        return errors


WORKLOADS = {w.name: w for w in (NoiseN500, NoiseSmall, PulseSearch, OracleVerify)}
