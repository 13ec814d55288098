"""In-memory spans recorded around the benchmark's calls into fcqst modules.

A span is (id, name, parent id, op id, phase, group, start, end, attrs).
``name`` is ``<module>.<function>`` of the library call it wraps, so the
module prefix is the layer.  ``phase`` says whether the call was part of a
timed op ("op") or of the untimed check and decomposition that follows it
("check").  ``group`` is the workload whose op made the call.  Spans stay in
memory until ``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer of the untraced run: every span is a shared no-op."""

    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def begin_op(self, op_id, phase, group):
        pass


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        tr = self.tracer
        self.rec["parent"] = tr.stack[-1] if tr.stack else None
        tr.stack.append(self.rec["id"])
        self.rec["start"] = _clock()
        return self

    def __exit__(self, *exc):
        self.rec["end"] = _clock()
        self.tracer.stack.pop()
        return False

    def set(self, **attrs):
        self.rec["attrs"].update(attrs)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op_id = None
        self.phase = None
        self.group = None

    def begin_op(self, op_id, phase, group):
        self.op_id, self.phase, self.group = op_id, phase, group

    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": None, "op": self.op_id,
               "phase": self.phase, "group": self.group, "start": 0.0, "end": 0.0,
               "attrs": attrs}
        self.spans.append(rec)
        return _Span(self, rec)

    def write_jsonl(self, path, t0):
        """One span per line, times in seconds since ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "start": s["start"] - t0,
                                     "end": s["end"] - t0}) + "\n")


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict[str, dict]:
    """Per span name: call count, total and self time in ms.

    Self time is a span's duration minus the time its direct children cover.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * duration(s)
        row["self_ms"] += 1e3 * (duration(s) - child_time[s["id"]])
    return out


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of opening and closing one nested span, in seconds."""
    tr = Tracer()
    tr.begin_op(0, "op", "calibration")
    start = _clock()
    with tr.span("outer"):
        for _ in range(samples):
            with tr.span("inner", n=1):
                pass
    return (_clock() - start) / (samples + 1)
