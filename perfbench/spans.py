"""In-memory span recording around calls into privzone's layers.

A span is one call: its name (``layer.function``), start and end on the
``perf_counter`` clock, the index of the span that was open when it
started (-1 for none), the alert id it served (None during set-up), the
encoding method it served, and an optional count (cells looked up,
primes found, cubes chosen).  Spans stay in a list until the run ends.

Names starting with ``run.`` are the benchmark's own orchestration spans;
they give every layer span of one alert a common parent, and are not a
layer of the program.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    alert: Optional[int]
    method: Optional[str]
    count: Optional[int]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; one thread, strictly nested calls."""

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self._open: list[int] = []
        self.alert: Optional[int] = None
        self.method: Optional[str] = None

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call; ``count(args, result)`` tags it."""
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                open_spans.pop()
                n = count(args, result) if count is not None and result is not None else None
                spans[index] = Span(name, start, end, parent, self.alert, self.method, n)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Orchestration span (``run.*``) that parents the layer spans inside it."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.alert, self.method, None)

    def finished(self) -> list[Span]:
        if self._open:
            raise RuntimeError("spans are still open")
        return list(self.spans)


class NullTracer:
    """Untraced runs: callables pass through unchanged, spans record nothing."""

    alert: Optional[int] = None
    method: Optional[str] = None

    def wrap(self, name, fn, count=None):
        return fn

    def span(self, name):
        return contextlib.nullcontext()


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]
