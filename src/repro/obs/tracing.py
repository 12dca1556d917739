"""Span-based tracing: end-to-end record lineage through the dataflow.

The paper's Figure-2 real-time layer is a chain of components
(cleaning -> in-situ statistics -> synopses -> link discovery -> CEP),
and its time-critical claims are about how long a surveillance record
takes to traverse that chain. A :class:`Tracer` records that traversal
as a tree of spans — in the real-time layer one trace per ``run()``, one
child span per region of the run the poll crossed, a sharded poll's
replica traces included — so a poll can be followed from raw arrival to
enriched output with per-region wall-clock timings.

Span ids are sequential integers and the clock is injectable, keeping
traces deterministic in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    """One timed stage of one traced journey."""

    span_id: int
    trace_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


class Tracer:
    """Collects spans, grouped into traces (one trace = one lineage: a run, a record)."""

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or time.perf_counter
        #: Spans kept at most: past it the oldest whole traces are evicted
        #: (a trace that alone fills it keeps its first), into ``dropped_spans``.
        self.max_spans = 100_000
        self._spans: dict[int, Span] = {}          # span id -> span, in creation order
        self._traces: dict[int, list[Span]] = {}   # trace id -> its spans, oldest trace first
        self._next_span_id = 0
        self._next_trace_id = 0
        self.dropped_spans = 0

    # -- recording ---------------------------------------------------------------

    def start_trace(self, name: str, **tags: Any) -> Span:
        """Open a root span; its trace id groups every descendant."""
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        return self._open(name, trace_id, parent_id=None, tags=tags)

    def start_span(self, name: str, parent: Span, **tags: Any) -> Span:
        """Open a child span under ``parent``."""
        return self._open(name, parent.trace_id, parent_id=parent.span_id, tags=tags)

    def finish(self, span: Span) -> Span:
        if span.end is None:
            span.end = self._clock()
        return span

    def _open(self, name: str, trace_id: int, parent_id: int | None, tags: dict[str, Any]) -> Span:
        span = Span(
            span_id=self._next_span_id,
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            start=self._clock(),
            tags=dict(tags),
        )
        self._next_span_id += 1
        self._keep(span)
        return span

    def _keep(self, span: Span) -> None:
        """Store ``span``, evicting the oldest traces other than its own to make room."""
        while len(self._spans) >= self.max_spans:
            oldest = next((trace_id for trace_id in self._traces if trace_id != span.trace_id), None)
            if oldest is None:   # its own trace fills the tracer: the span goes
                self.dropped_spans += 1
                return
            for evicted in self._traces.pop(oldest):
                del self._spans[evicted.span_id]
                self.dropped_spans += 1
        self._spans[span.span_id] = span
        self._traces.setdefault(span.trace_id, []).append(span)

    def absorb(
        self,
        spans: list[Span],
        parent: Span | None = None,
        tags: dict[str, Any] | None = None,
    ) -> None:
        """Re-home foreign spans (e.g. harvested from a shard worker).

        Every absorbed span gets a fresh span id from this tracer's
        sequence — foreign ids are process-local and would collide. Under
        ``parent`` the foreign roots (and spans whose foreign parent is
        not in this batch) become children of ``parent`` and every
        absorbed span joins ``parent``'s trace, so a sharded poll is one
        trace; without ``parent`` each foreign trace gets a fresh trace
        id and its roots stay roots. ``tags`` (e.g. ``{"shard": 3}``) are
        merged into every absorbed span. Start/end stamps are copied
        verbatim: they are only comparable *within* one foreign trace,
        which is all the per-stage durations need.
        """
        id_map: dict[int, int] = {}
        trace_map: dict[int, int] = {}
        for sp in spans:
            trace_id = parent.trace_id if parent is not None else trace_map.get(sp.trace_id)
            if trace_id is None:
                trace_id = trace_map[sp.trace_id] = self._next_trace_id
                self._next_trace_id += 1
            parent_id = id_map.get(sp.parent_id) if sp.parent_id is not None else None
            if parent_id is None and parent is not None:
                parent_id = parent.span_id
            new_tags = dict(sp.tags)
            if tags:
                new_tags.update(tags)
            new = Span(
                span_id=self._next_span_id,
                trace_id=trace_id,
                parent_id=parent_id,
                name=sp.name,
                start=sp.start,
                end=sp.end,
                tags=new_tags,
            )
            id_map[sp.span_id] = new.span_id
            self._next_span_id += 1
            self._keep(new)

    # -- querying ----------------------------------------------------------------

    def spans(self) -> list[Span]:
        return list(self._spans.values())

    def traces(self) -> list[int]:
        """Trace ids in first-seen order."""
        return list(self._traces)

    def trace(self, trace_id: int) -> list[Span]:
        """All spans of one trace, in creation order."""
        return list(self._traces.get(trace_id, ()))

    def lineage(self, trace_id: int) -> str:
        """Render one trace as an indented stage tree with timings."""
        spans = self.trace(trace_id)
        if not spans:
            return f"(trace {trace_id}: no spans)"
        # A span whose parent is not in the trace (dropped past
        # ``max_spans``) renders as a root.
        span_ids = {sp.span_id for sp in spans}
        children: dict[int | None, list[Span]] = {}
        for sp in spans:
            key = sp.parent_id if sp.parent_id in span_ids else None
            children.setdefault(key, []).append(sp)
        lines: list[str] = []

        def walk(sp: Span, depth: int) -> None:
            tag_str = " ".join(f"{k}={v}" for k, v in sp.tags.items())
            lines.append(
                "  " * depth
                + f"{sp.name} [{sp.duration_s * 1e3:.3f} ms]"
                + (f" {tag_str}" if tag_str else "")
            )
            for child in children.get(sp.span_id, []):
                walk(child, depth + 1)

        for root in children.get(None, []):
            walk(root, 0)
        return "\n".join(lines)

