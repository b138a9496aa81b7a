"""In-memory spans recorded around calls into ``repro``'s layers.

A span is ``(id, name, start, end, parent, job)``.  Its name is
``<layer>.<function>``, where the layer is a ``repro`` module
(``transpile``, ``plan``, ``sim``, ``sampling``, ``observables``,
``service``), the benchmark's own scoring (``charter``), or ``bench`` for
the benchmark's per-call root spans.  A span's *self time* is its
duration minus the part of its interval that its children cover; summing
self time by layer attributes every instant of a call to exactly one
layer, even when children from two worker processes overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[int]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans around calls; ``job`` tags every span it records."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.job: Optional[int] = None
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.job)

    def adopt(self, spans: Sequence[Span], parent: int) -> None:
        """Append spans recorded by another tracer (a worker) under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            self.spans.append(
                Span(
                    span.id + offset,
                    span.name,
                    span.start,
                    span.end,
                    parent if span.parent is None else span.parent + offset,
                    self.job,
                )
            )

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.finished():
                handle.write(json.dumps(span._asdict()) + "\n")


def covered(span: Span, children: Iterable[Span]) -> float:
    """Length of the union of ``children``'s intervals, clipped to ``span``."""
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end)) for child in children
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in intervals:
        if end <= start:
            continue
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = children_of(spans)
    return {
        span.id: (span.end - span.start) - covered(span, children.get(span.id, ()))
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return totals
