"""In-memory spans of the traced run, their Chrome trace export and the
per-layer aggregation (busy time, self time, call count, counts).

Spans are recorded by the benchmark around its calls into blockplan; the
program itself is not instrumented.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; ``span`` yields a dict the caller may fill
    with counts measured inside the span."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, self._clock(), 0.0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span.counts
        finally:
            self._stack.pop()
            span.end = self._clock()


class NullTracer:
    """Same interface as :class:`Tracer`, records nothing."""

    op = 0

    def span(self, name: str):
        return nullcontext({})


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: busy seconds, self seconds, calls and summed counts.

    Self time is a span's duration minus the part of it that its children
    cover, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"busy": 0.0, "self": 0.0, "calls": 0})
        busy = s.end - s.start
        agg["busy"] += busy
        agg["self"] += busy - covered(children.get(s.id, []), s.start, s.end)
        agg["calls"] += 1
        for key, value in s.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


def write_chrome_trace(spans: list[Span], path: Path) -> None:
    """Chrome Trace Event JSON (complete events), loadable in Perfetto."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"op": s.op, "span": s.id, "parent": s.parent, **s.counts},
        }
        for s in spans
    ]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
