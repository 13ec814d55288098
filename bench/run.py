"""fcqst benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 bench/run.py --workload noise-n500 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` beside this directory and nowhere else, so a directory without the
sources fails with exit code 2 before anything is measured.

The timed loop runs whole periods of the workload's op list (see
workloads.py) until ``--seconds`` have passed and at least ``MIN_OPS`` ops
are done.  Every op's output is checked afterwards, outside the timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop with spans around every call into fcqst, borrows a few coverage ops
from the other workloads for layers this workload never calls, and prints
the per-layer metrics and the tracing overhead.  Spans go to
``bench/out/spans-<workload>-s<seed>.jsonl``, and every run writes its full
record (environment, metrics, details) to ``bench/out/``.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers   # stdlib only; this directory is sys.path[0] when run as a script
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("noise-n500", "noise-small", "pulse-search", "oracle-verify")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_BLAS_THREADS = 1
TAIL_BEYOND = 10        # op_tail_ms: the highest percentile with 10 samples beyond
MIN_OPS = TAIL_BEYOND + 1
MAX_LOOP_S = 100.0      # the whole run must end within 180 s
COVERAGE_DEADLINE_S = 130.0
SETUP_SAMPLES = 3       # this process plus two fresh ones


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _cap_blas_threads(nproc: int) -> str | None:
    """Fix BLAS threads before numpy loads; error text if over nproc.

    The default is one thread: on a shared 2-CPU host, two OpenBLAS threads
    stalled a 1.2 s noise-n500 op for up to 9 s whenever the host preempted
    one CPU, while one thread stayed within about 1.5x.
    """
    for var in BLAS_ENV:
        value = os.environ.setdefault(var, str(DEFAULT_BLAS_THREADS))
        if not value.isdigit() or int(value) < 1:
            return f"{var}={value!r} is not a positive thread count"
        if int(value) > nproc:
            return f"{var}={value} exceeds nproc={nproc}; refusing to run"
    return None


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of every file under src/fcqst: identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fcqst")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if name.endswith(".py") and os.path.isfile(path):
            digest.update(name.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, nproc, blas_threads) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(), "src_sha256": _source_sha256(), "nproc": nproc,
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_ENV},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def _setup(args):
    """Import, input generation and warm-up ops; returns (seconds, workload)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import fcqst
    import workloads
    if os.path.dirname(os.path.abspath(fcqst.__file__)) != os.path.join(SRC, "fcqst"):
        raise ImportError(f"fcqst imported from {fcqst.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    null = tracing.NullTracer()
    for op in wl.warmup_ops():
        wl.run(op, null)
    return time.perf_counter() - start, wl


def _setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _run_op(wl, op, tracer, op_id):
    """One timed op: (op, result, error text or None, seconds)."""
    tracer.begin_op(op_id, "op", wl.name)
    t0 = time.perf_counter()
    try:
        with tracer.span("op", kind=op.kind):
            result, error = wl.run(op, tracer), None
    except Exception:  # a failed op is counted, not fatal
        result, error = None, traceback.format_exc(limit=3)
    return op, result, error, time.perf_counter() - t0


def _timed_loop(wl, tracer, seconds):
    """Whole periods until ``seconds`` passed and MIN_OPS ops ran."""
    records = []  # (op, result, error, seconds)
    clock = time.perf_counter
    start = clock()
    while True:
        for op in wl.period():
            records.append(_run_op(wl, op, tracer, len(records)))
            if clock() - start > MAX_LOOP_S:
                break
        elapsed = clock() - start
        if (elapsed >= seconds and len(records) >= MIN_OPS) or elapsed > MAX_LOOP_S:
            return records, elapsed


def _check_all(wl, records, tracer, first_id=0) -> list[str]:
    failures = []
    for i, (op, result, error, _) in enumerate(records):
        tracer.begin_op(first_id + i, "check", wl.name)
        if error is None:
            try:
                errors = wl.check(op, result, tracer)
            except Exception:
                errors = [traceback.format_exc(limit=3)]
        else:
            errors = [error]
        if errors:
            failures.append(f"{wl.name} op {first_id + i} ({op.kind}): " + "; ".join(errors))
    return failures


def _coverage(workload_name, seed, tracer, first_id, deadline):
    """Traced coverage ops of the other workloads, each run then checked.

    Ops due after ``deadline`` are skipped so the run ends in time; the
    metrics they would have fed are then reported missing.
    """
    import workloads
    failures, count = [], 0
    for name in WORKLOAD_NAMES:
        if name == workload_name:
            continue
        other = workloads.WORKLOADS[name](seed, OUT_DIR)
        records = []
        for op in other.coverage_ops():
            if time.perf_counter() > deadline:
                break
            records.append(_run_op(other, op, tracer, first_id + count + len(records)))
        failures += _check_all(other, records, tracer, first_id + count)
        count += len(records)
    return failures, count


def _tail(times):
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile).

    A loop cut short by MAX_LOOP_S may hold too few ops; the maximum then
    stands in, reported as percentile 100.
    """
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fcqst", "__init__.py")):
        return _fail(f"no fcqst sources under {SRC}; run from a source checkout")
    nproc = len(os.sched_getaffinity(0))
    problem = _cap_blas_threads(nproc)
    if problem:
        return _fail(problem)
    os.makedirs(OUT_DIR, exist_ok=True)

    setup_s, wl = _setup(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    blas_threads = _openblas_threads()
    if blas_threads is not None and blas_threads > nproc:
        return _fail(f"BLAS runs {blas_threads} threads on nproc={nproc}; refusing to run")
    env = _environment(args, nproc, blas_threads)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    t0 = time.perf_counter()
    records, loop_s = _timed_loop(wl, tracer, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = _check_all(wl, records, tracer)
    attempted = len(records)
    times = [dt for *_, dt in records]
    tail_ms, tail_pct = _tail(times)
    detail = {
        "ops": attempted, "loop_s": loop_s, "op_tail_percentile": tail_pct, "op_tail_samples": attempted,
        "op_kinds": {k: sum(op.kind == k for op, *_ in records)
                     for k in sorted({op.kind for op, *_ in records})},
    }

    if args.trace:
        cov_failures, cov_ops = _coverage(args.workload, args.seed, tracer, attempted,
                                          t0 + COVERAGE_DEADLINE_S)
        failures += cov_failures
        attempted += cov_ops
        spans = tracer.spans
        timed = [s for s in spans if s["group"] == wl.name and s["phase"] == "op"]
        by_name = tracing.self_times(timed)
        by_module = {}
        for name, row in by_name.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + row["self_ms"] / len(records)
        overhead_pct = 100.0 * tracing.span_cost_s() * len(timed) / sum(times)
        values = layers.layer_metrics(spans, wl.name)
        metrics = {name: _metric(v, unit) for name, (v, unit, _) in values.items()
                   if v is not None}
        metrics["trace.overhead_pct"] = _metric(overhead_pct, "%")
        detail.update({
            "coverage_ops": cov_ops, "traced_ops_per_s": len(records) / loop_s,
            "traced_op_p50_ms": 1e3 * statistics.median(times),
            "layer_sources": {name: src for name, (_, _, src) in values.items()},
            "missing_layer_metrics": [name for name, (v, _, _) in values.items() if v is None],
            "self_ms_per_op_by_module": by_module, "spans_by_name": by_name,
            "spans_recorded": len(spans),
        })
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{wl.name}-s{args.seed}.jsonl"), t0)
    else:
        samples = [setup_s] + [_setup_in_fresh_process(args)
                               for _ in range(SETUP_SAMPLES - 1)]
        detail["setup_samples_s"] = samples
        metrics = {
            "setup_s": _metric(statistics.median(samples), "s"),
            "ops_per_s": _metric(attempted / loop_s, "1/s"),
            "op_p50_ms": _metric(1e3 * statistics.median(times), "ms"),
            "op_tail_ms": _metric(1e3 * tail_ms, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    detail["failed_frac"] = len(failures) / attempted
    for line in failures[:5]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"env": env, "detail": detail, "result": result,
              "op_ms": [[op.kind, 1e3 * dt] for op, *_, dt in records]}
    with open(os.path.join(OUT_DIR, f"result-{wl.name}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
