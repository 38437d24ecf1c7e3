"""In-memory span recorder used by the traced benchmark run.

A span is recorded around each public library call the benchmark makes,
named ``<module>.<function>``, with its start and end (host seconds from
``time.perf_counter``), its parent span and the request it belongs to.
Spans stay in memory and are written out once, at the end of the run.

The untraced run uses :data:`NULL_TRACER`, whose spans cost one method
call and record nothing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    request: str | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def count(self, key: str, value: float = 1) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Records nothing; the untraced run's tracer."""

    enabled = False

    def span(self, name: str, request: str | None = None) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _ActiveSpan:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span.span_id)
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(self._span)


class Tracer:
    """Records every span; parents are tracked per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request: str | None = None) -> _ActiveSpan:
        stack = self._stack()
        return _ActiveSpan(
            self,
            Span(
                span_id=next(self._ids),
                name=name,
                parent=stack[-1] if stack else None,
                request=request,
                start=0.0,
            ),
        )


@dataclass
class LayerRow:
    """Aggregate of every span with one name."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def summarize(spans: list[Span]) -> dict[str, LayerRow]:
    """Per-name calls, busy time, self time and summed counts.

    Self time is a span's duration minus the durations of its children;
    a thread runs its children one after another inside the parent, so
    the children never overlap each other.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    rows: dict[str, LayerRow] = defaultdict(LayerRow)
    for span in spans:
        row = rows[span.name]
        duration = span.end - span.start
        row.calls += 1
        row.busy_s += duration
        row.self_s += max(0.0, duration - child_time[span.span_id])
        for key, value in span.counts.items():
            row.counts[key] += value
    return dict(sorted(rows.items()))


def render_table(rows: dict[str, LayerRow]) -> str:
    lines = [f"{'span':36} {'calls':>7} {'busy_s':>10} {'self_s':>10}  counts"]
    for name, row in rows.items():
        counts = " ".join(f"{k}={v:g}" for k, v in sorted(row.counts.items()))
        lines.append(
            f"{name:36} {row.calls:7d} {row.busy_s:10.4f} {row.self_s:10.4f}  {counts}"
        )
    return "\n".join(lines)


def write_spans(spans: list[Span], path) -> None:
    records = [
        {
            "id": s.span_id,
            "name": s.name,
            "parent": s.parent,
            "request": s.request,
            "start_s": s.start,
            "end_s": s.end,
            "counts": s.counts,
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]
    path.write_text(json.dumps(records) + "\n")
