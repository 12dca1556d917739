"""Structured event log: what *happened*, next to the numbers.

Metrics (:mod:`repro.obs.metrics`) answer "how fast / how many"; this
module answers "what occurred and when": retention drops in the broker,
health-state transitions, complex-event detections, run boundaries.
Events carry an event-time stamp (stream time, when the emitter has
one), a wall-clock stamp, a severity, a component tag and a kind, so
operators can filter a live run ("every warn+ event of the broker in
the last minute") without grepping stdout.

The log is a bounded ring (old events are overwritten, never an
unbounded list) with an optional pluggable sink — any callable taking
an :class:`ObsEvent` — so a run can also stream events to a JSONL file
(:class:`JsonlSink`) or a test's list while keeping O(capacity) memory.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # typing only: streams must stay importable without obs
    from ..streams.broker import Broker

#: Severities, least to most severe. Filtering is by minimum severity.
SEVERITIES = ("debug", "info", "warn", "error")

_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """One structured occurrence in a running system."""

    seq: int                      # monotonically increasing per log
    wall_s: float                 # wall-clock emission time (time.time)
    severity: str
    component: str                # "broker", "cep", "health", ...
    kind: str                     # "retention_drop", "detection", "transition", ...
    message: str = ""
    t: float | None = None        # event time (stream seconds), when known
    tags: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable; what sinks receive)."""
        out = {
            "seq": self.seq,
            "wall_s": self.wall_s,
            "severity": self.severity,
            "component": self.component,
            "kind": self.kind,
        }
        if self.message:
            out["message"] = self.message
        if self.t is not None:
            out["t"] = self.t
        if self.tags:
            out["tags"] = dict(self.tags)
        return out


class EventLog:
    """A bounded, queryable ring of :class:`ObsEvent`.

    ``capacity`` bounds memory: once full, the oldest events are
    discarded (counted in :attr:`overwritten`). ``sink`` — any callable
    of one event — sees *every* event at emission time, including those
    the ring later discards.
    """

    def __init__(
        self,
        capacity: int = 1024,
        sink: Callable[[ObsEvent], None] | None = None,
        clock: Callable[[], float] | None = None,
    ):
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        self.capacity = capacity
        self.sink = sink
        self._clock = clock or time.time
        self._ring: deque[ObsEvent] = deque(maxlen=capacity)
        self._next_seq = 0
        self.overwritten = 0
        self.counts: dict[str, int] = {s: 0 for s in SEVERITIES}

    def emit(
        self,
        severity: str,
        component: str,
        kind: str,
        message: str = "",
        t: float | None = None,
        **tags: Any,
    ) -> ObsEvent:
        """Record one event; returns it (handy for asserting in tests)."""
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}; use one of {SEVERITIES}")
        event = ObsEvent(
            seq=self._next_seq,
            wall_s=self._clock(),
            severity=severity,
            component=component,
            kind=kind,
            message=message,
            t=t,
            tags=tags,
        )
        self._next_seq += 1
        self.counts[severity] += 1
        if len(self._ring) == self.capacity:
            self.overwritten += 1
        self._ring.append(event)
        if self.sink is not None:
            self.sink(event)
        return event

    def ingest(self, event: "ObsEvent | dict[str, Any]", **extra_tags: Any) -> ObsEvent:
        """Absorb a foreign event (e.g. harvested from a shard worker).

        The original wall-clock stamp, severity, component, kind, message,
        event time and tags are preserved — only the sequence number is
        re-assigned, because ``seq`` orders *this* log. ``extra_tags``
        (e.g. ``shard=3``) are merged over the event's own tags so a
        merged log stays filterable by origin.
        """
        data = event.to_dict() if isinstance(event, ObsEvent) else dict(event)
        severity = str(data.get("severity", "info"))
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}; use one of {SEVERITIES}")
        tags = dict(data.get("tags") or {})
        tags.update(extra_tags)
        wall_s = data.get("wall_s")
        merged = ObsEvent(
            seq=self._next_seq,
            wall_s=float(wall_s) if wall_s is not None else self._clock(),
            severity=severity,
            component=str(data.get("component", "")),
            kind=str(data.get("kind", "")),
            message=str(data.get("message", "")),
            t=data.get("t"),
            tags=tags,
        )
        self._next_seq += 1
        self.counts[severity] += 1
        if len(self._ring) == self.capacity:
            self.overwritten += 1
        self._ring.append(merged)
        if self.sink is not None:
            self.sink(merged)
        return merged

    # -- querying ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including overwritten ones)."""
        return self._next_seq

    def events(self) -> list[ObsEvent]:
        """Retained events, oldest first."""
        return list(self._ring)

    def tail(self) -> list[ObsEvent]:
        """The 20 most recent retained events, oldest first."""
        return list(self._ring)[-20:]

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable summary for ``system_metrics()``-style views."""
        return {
            "emitted": self.emitted,
            "retained": len(self._ring),
            "overwritten": self.overwritten,
            "by_severity": {s: n for s, n in self.counts.items() if n},
            "recent": [e.to_dict() for e in self.tail()],
        }


class JsonlSink:
    """An :class:`EventLog` sink appending one JSON object per line.

    Accepts either a path (opened lazily, append mode) or an open
    text-mode file object. Use as ``EventLog(sink=JsonlSink(path))``;
    call :meth:`close` (or use as a context manager) when done.
    """

    def __init__(self, path_or_file: str | IO[str]):
        if hasattr(path_or_file, "write"):
            self._file: IO[str] | None = path_or_file  # type: ignore[assignment]
            self._path = None
            self._owns_file = False
        else:
            self._file = None
            self._path = str(path_or_file)
            self._owns_file = True
        self.written = 0

    def __call__(self, event: ObsEvent) -> None:
        if self._file is None:
            self._file = open(self._path, "a", encoding="utf-8")
        self._file.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._file is not None and self._owns_file:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- hook attachment: substrate components emit without importing obs -------------


def watch_broker(broker: "Broker", log: EventLog) -> None:
    """Emit a warn event whenever a topic's retention trims messages.

    Idempotent per topic; call again after creating new topics (mirrors
    :func:`repro.obs.instrument_broker`).
    """
    for topic in broker.topics():
        def on_drop(overflow: int, t=topic) -> None:
            log.emit(
                "warn",
                "broker",
                "retention_drop",
                f"topic {t.name!r} dropped {overflow} message(s) past retention",
                dropped=overflow,
                topic=t.name,
            )

        topic.on_drop = on_drop
