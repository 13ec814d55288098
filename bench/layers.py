"""Per-layer metrics of the traced run, computed from its spans.

Each metric names the workload whose ops define it ("home").  A traced run
computes a metric from its own workload's spans when they contain the layer
call; otherwise from the coverage ops it borrowed from the home workload.
The detail output says which source each value came from.

Times are means per call unless the name says otherwise; counts are exact
totals over the run.  Two are derived: ``assembly_ms`` is the median over
back-to-back pairs of sample_noisy_hamiltonian minus the build and the pair
draws of that trial, and ``cli.overhead_ms`` the median over ops of the
fastest ``fcqst noise`` call minus the fastest bare run_mc on the same
arguments.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean, median

from tracing import duration


def _spans(spans, name, phase=None, **attrs):
    return [s for s in spans if s["name"] == name
            and (phase is None or s["phase"] == phase)
            and all(s["attrs"].get(k) == v for k, v in attrs.items())]


def _mean(values, scale):
    return scale * fmean(values) if values else None


def _mean_time(spans, name, scale=1e3, phase=None, min_n=None, **attrs):
    sel = _spans(spans, name, phase, **attrs)
    if min_n is not None:
        sel = [s for s in sel if s["attrs"]["n"] >= min_n]
    return _mean([duration(s) for s in sel], scale)


def _total(spans, name, attr, phase=None):
    sel = _spans(spans, name, phase)
    return sum(int(s["attrs"][attr]) for s in sel) if sel else None


def _by_op(spans, name, phase=None, **attrs):
    """op id -> spans of that name, in call order."""
    out = defaultdict(list)
    for s in _spans(spans, name, phase, **attrs):
        out[s["op"]].append(s)
    return out


def _fastest(spans) -> float:
    return min(map(duration, spans))


def _trial_ms(spans):
    """(run_mc - fastest build at the op's n) / trials, averaged over ops."""
    runs = _by_op(spans, "noise_mc.run_mc", phase="op")
    builds = _by_op(spans, "spin_model.build")
    vals = [(duration(r[0]) - _fastest(builds[op])) / r[0]["attrs"]["trials"]
            for op, r in runs.items() if builds.get(op)]
    return _mean(vals, 1e3)


def _median(values, scale):
    return scale * median(values) if values else None


def _assembly_ms(spans):
    """Median of sample - build - trial-0 draws over back-to-back pairs.

    The decomposition calls build and sample alternately, so a slow phase
    of the host lengthens both calls of a pair and cancels in the
    difference.
    """
    samples = _by_op(spans, "noise_mc.sample_noisy_hamiltonian")
    builds = _by_op(spans, "spin_model.build")
    draws = _by_op(spans, "rng.normals", trial=0)
    vals = []
    for op, b in builds.items():
        if samples.get(op) and draws.get(op):
            paired = samples[op][-len(b):]
            vals += [duration(s) - duration(x) - duration(draws[op][0])
                     for x, s in zip(b, paired)]
    return _median(vals, 1e3)


def _cli_overhead_ms(spans):
    """Median over ops of fastest CLI call minus fastest bare run_mc."""
    clis = _by_op(spans, "cli.main")
    refs = _by_op(spans, "noise_mc.run_mc", cli_reference=True)
    vals = [_fastest(c) - _fastest(refs[op]) for op, c in clis.items() if refs.get(op)]
    return _median(vals, 1e3)


def _evals_per_s(spans):
    sel = _spans(spans, "speed_search.optimize_pulse", "op")
    busy = sum(duration(s) for s in sel)
    return sum(s["attrs"]["evals"] for s in sel) / busy if sel else None


def _reached_frac(spans):
    sel = _spans(spans, "speed_search.optimize_pulse", "op")
    return fmean(1.0 if s["attrs"]["reached"] else 0.0 for s in sel) if sel else None


# (name, unit, home workload, function of a span list -> value or None)
LAYER_METRICS = [
    ("spin_model.build_ms", "ms", "noise-n500",
     lambda s: _mean_time(s, "spin_model.build")),
    ("spin_model.project_full_ms", "ms", "oracle-verify",
     lambda s: _mean_time(s, "spin_model.project_full_space", min_n=10)),
    ("effective3.reduce_ms", "ms", "oracle-verify",
     lambda s: _mean_time(s, "effective3.reduce_to_effective")),
    ("rng.normals_ms", "ms", "noise-n500", lambda s: _mean_time(s, "rng.normals")),
    ("rng.draws", "count", "noise-n500", lambda s: _total(s, "rng.normals", "count")),
    ("noise_mc.run_mc_ms", "ms", "noise-n500",
     lambda s: _mean_time(s, "noise_mc.run_mc", phase="op")),
    ("noise_mc.trial_ms", "ms", "noise-n500", _trial_ms),
    ("noise_mc.trials", "count", "noise-n500",
     lambda s: _total(s, "noise_mc.run_mc", "trials", phase="op")),
    ("noise_mc.assembly_ms", "ms", "noise-n500", _assembly_ms),
    ("propagator.expm_ms", "ms", "noise-n500",
     lambda s: _mean_time(s, "propagator.evolve_constant", kind="noisy")),
    ("propagator.expm_full_ms", "ms", "oracle-verify",
     lambda s: _mean_time(s, "propagator.evolve_constant", min_n=10, kind="full")),
    ("propagator.segment_propagators_us", "us", "pulse-search",
     lambda s: _mean_time(s, "propagator.segment_propagators", scale=1e6)),
    ("propagator.ordered_product_us", "us", "pulse-search",
     lambda s: _mean_time(s, "propagator.ordered_product", scale=1e6)),
    ("propagator.lr_commutator_ms", "ms", "oracle-verify",
     lambda s: _mean_time(s, "propagator.lr_commutator_check")),
    ("brachistochrone.qb_residuals_ms", "ms", "oracle-verify",
     lambda s: _mean_time(s, "brachistochrone.qb_residuals")),
    ("brachistochrone.case_unitary_us", "us", "oracle-verify",
     lambda s: _mean_time(s, "brachistochrone.case_unitary", scale=1e6)),
    ("speed_search.optimize_ms", "ms", "pulse-search",
     lambda s: _mean_time(s, "speed_search.optimize_pulse", phase="op")),
    ("speed_search.evals", "count", "pulse-search",
     lambda s: _total(s, "speed_search.optimize_pulse", "evals", phase="op")),
    ("speed_search.evals_per_s", "1/s", "pulse-search", _evals_per_s),
    ("speed_search.reached_frac", "fraction", "pulse-search", _reached_frac),
    ("speed_search.hit_bound", "count", "pulse-search",
     lambda s: _total(s, "speed_search.optimize_pulse", "hit_bound", phase="op")),
    ("cli.overhead_ms", "ms", "noise-small", _cli_overhead_ms),
]


def layer_metrics(spans, workload):
    """{name: (value, unit, source)} for every per-layer metric."""
    groups = defaultdict(list)
    for s in spans:
        groups[s["group"]].append(s)
    out = {}
    for name, unit, home, fn in LAYER_METRICS:
        value, source = fn(groups[workload]), "ops"
        if value is None:
            value, source = fn(groups[home]), f"coverage:{home}"
        out[name] = (value, unit, source)
    return out

