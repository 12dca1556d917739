"""Span-based tracing: end-to-end record lineage through the dataflow.

The paper's Figure-2 real-time layer is a chain of components
(cleaning -> in-situ statistics -> synopses -> link discovery -> CEP),
and its time-critical claims are about how long a surveillance record
takes to traverse that chain. A :class:`Tracer` records that traversal
as a tree of spans — in the real-time layer one trace per ``run()``, one
child span per stage the poll crossed — so a poll can be followed from
raw arrival to enriched output with per-stage wall-clock timings.

Span ids are sequential integers and the clock is injectable, keeping
traces deterministic in tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


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
        #: Spans kept at most; later ones are counted in ``dropped_spans``.
        self.max_spans = 100_000
        self._spans: list[Span] = []
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

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """A context-managed root span: a new trace."""
        sp = self.start_trace(name, **tags)
        try:
            yield sp
        finally:
            self.finish(sp)

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
        if len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            self.dropped_spans += 1
        return span

    def absorb(
        self,
        spans: list[Span],
        parent: Span | None = None,
        tags: dict[str, Any] | None = None,
    ) -> list[Span]:
        """Re-home foreign spans (e.g. harvested from a shard worker).

        Every absorbed span gets fresh span and trace ids from this
        tracer's sequences — foreign ids are process-local and would
        collide — with one new trace id per foreign trace, so shard-local
        traces stay grouped but namespaced. Root spans (and spans whose
        foreign parent is not in this batch) are re-parented under
        ``parent`` when given, hanging a whole sharded run off one
        synthetic root. ``tags`` (e.g. ``{"shard": 3}``) are merged into
        every absorbed span. Start/end stamps are copied verbatim: they
        are only comparable *within* one foreign trace, which is all the
        per-stage durations need.
        """
        id_map: dict[int, int] = {}
        trace_map: dict[int, int] = {}
        absorbed: list[Span] = []
        for sp in spans:
            trace_id = trace_map.get(sp.trace_id)
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
            if len(self._spans) < self.max_spans:
                self._spans.append(new)
                absorbed.append(new)
            else:
                self.dropped_spans += 1
        return absorbed

    # -- querying ----------------------------------------------------------------

    def spans(self) -> list[Span]:
        return list(self._spans)

    def traces(self) -> list[int]:
        """Trace ids in first-seen order."""
        seen: dict[int, None] = {}
        for sp in self._spans:
            seen.setdefault(sp.trace_id, None)
        return list(seen)

    def trace(self, trace_id: int) -> list[Span]:
        """All spans of one trace, in creation order."""
        return [sp for sp in self._spans if sp.trace_id == trace_id]

    def lineage(self, trace_id: int) -> str:
        """Render one trace as an indented stage tree with timings."""
        spans = self.trace(trace_id)
        if not spans:
            return f"(trace {trace_id}: no spans)"
        # A span whose parent lives in another trace (an absorbed shard
        # root re-parented under the synthetic run root) renders as a
        # root of its own trace.
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

