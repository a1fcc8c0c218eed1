"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index
of the enclosing span in the same list (-1 for a root), ``run_id`` the
repeat it belongs to.  Spans are recorded only around calls the benchmark
makes into the package (or wraps before handing to it), so the package
itself carries no tracing code.  A layer's self time is the sum of its
spans' durations minus the durations of their direct children; calls are
strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    run_id: int


class Tracer:
    """Records nested spans for one repeat of a workload."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        #: Closed spans; an open span's slot holds its start time.
        self.spans: list[Span | float] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter
        run_id = self.run_id

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = clock()
            spans.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = Span(name, start, end, parent, run_id)

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def mark_from_parent_start(self, name: str) -> None:
        """Close a span that began when the innermost open span began.

        For work a public call does before it first calls back into the
        benchmark (``run_serve`` building its pool before it calls the
        controller factory): the span covers exactly that prefix.
        """
        parent = self._open[-1]
        self.spans.append(
            Span(name, self.spans[parent], time.perf_counter(), parent,
                 self.run_id)
        )

    def finished(self) -> list[Span]:
        """All spans, once every call has returned."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return list(self.spans)


class NullTracer:
    """The untraced run: the same interface, recording nothing."""

    @staticmethod
    def wrap(name: str, fn: Callable) -> Callable:
        return fn

    @staticmethod
    def call(name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def mark_from_parent_start(name: str) -> None:
        pass


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name self time: duration minus direct children's durations."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - children[i]
    return dict(out)


def counts(spans: list[Span]) -> dict[str, int]:
    """Number of spans per name."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)
