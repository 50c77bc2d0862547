"""In-memory spans recorded around the benchmark's calls into nelsonlab.

A span is one call into a layer: its name, start and end (seconds on the
``perf_counter`` clock), the id of the span that was open when it started
(its parent), the id of the pass it belongs to, and optional attributes
such as the grid size or the work the call performs.  Spans stay in memory
until the run ends; ``to_records`` turns them into JSON-ready dicts.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; ``trace`` labels the pass they belong to."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.trace = "setup"
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "trace": self.trace, "name": name, "attrs": attrs,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def find(self, name: str, *, trace_prefix: str = "",
             **attrs) -> list[dict]:
        """Closed spans called ``name`` whose attributes include ``attrs``."""
        return [s for s in self.spans
                if s["name"] == name and s["end"] is not None
                and s["trace"].startswith(trace_prefix)
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, total time, and self time (total minus
        the time covered by child spans), all in seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            dur = s["end"] - s["start"]
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[s["id"]]
        return out

    def to_records(self) -> list[dict]:
        return [{**s, "start": s["start"] - self._t0,
                 "end": None if s["end"] is None else s["end"] - self._t0}
                for s in self.spans]


class NullTracer:
    """Stands in for ``Tracer`` in timed runs: spans cost one method call."""

    enabled = False
    trace = ""

    def span(self, name: str, **attrs):
        return nullcontext()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (``None`` when there are fewer than eleven samples)."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if n else None,
           "tail_percentile": None, "tail_value": None}
    if n >= 11:
        out["tail_percentile"] = 100.0 * (n - 10) / n
        out["tail_value"] = sorted(samples)[n - 11]
    return out
