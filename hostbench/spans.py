"""In-memory spans for the traced run, and the self-time arithmetic.

A span is one timed region at a layer boundary: a name ``<layer>.<op>``,
start and end (``time.perf_counter`` seconds), the span that caused it
and a trace id shared by every span of one request.  Spans nest through
a per-thread stack; work handed to another thread (a request waiting in
the serving queue, then riding an engine batch) is linked by recording
the span explicitly with the request's trace id and the batch's span id.

Spans stay in memory while the benchmark runs and are written out once
at the end (:meth:`SpanRecorder.dump`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    start: float
    end: float = float("nan")
    phase: str = "run"
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink; ``phase`` tags spans as set-up or run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.phase = "run"
        self.spans: list[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_trace(self) -> int:
        return next(self._trace_ids)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, *, trace_id: int | None = None, **attrs):
        """Open a span under this thread's innermost open span."""
        parent = self.current()
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self.new_trace()
        opened = Span(
            span_id=next(self._span_ids),
            parent_id=parent.span_id if parent is not None else None,
            trace_id=trace_id,
            name=name,
            start=self.clock(),
            phase=self.phase,
            attrs=attrs,
        )
        stack = self._stack()
        stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(opened)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        trace_id: int,
        **attrs,
    ) -> Span:
        """Add a root span measured elsewhere (an interval crossing threads)."""
        recorded = Span(
            span_id=next(self._span_ids),
            parent_id=None,
            trace_id=trace_id,
            name=name,
            start=start,
            end=end,
            phase=self.phase,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(recorded)
        return recorded

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self.spans)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for recorded in self.snapshot():
                out.write(json.dumps(asdict(recorded), default=str) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - union_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


@dataclass
class LayerTotals:
    calls: int = 0  # outermost spans of the layer
    busy_s: float = 0.0  # summed duration of those outermost spans
    self_s: float = 0.0  # summed self time of every span of the layer


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-layer calls, busy time and self time.

    A span nested (through its parents) inside a span of the same layer
    counts towards that layer's self time but not again as a call or as
    busy time, so a kernel whose batched entry point loops over its
    single-vector one is one call.
    """
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for s in spans:
        entry = totals.setdefault(s.layer, LayerTotals())
        entry.self_s += selfs[s.span_id]
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.layer != s.layer:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            entry.calls += 1
            entry.busy_s += s.duration
    return totals
