"""Stream records: the unit of data flowing through the dataflow engine.

Every message exchanged between datAcron components (Figure 2) travels
over Kafka topics as a timestamped, keyed payload. ``Record`` mirrors
that: an event-time timestamp, an optional partitioning key, and an
arbitrary value. ``Watermark`` carries event-time progress through the
dataflow so that windows can close deterministically — the same
mechanism Apache Flink uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class Record(Generic[T]):
    """A keyed, event-time-stamped stream element.

    ``ingest_wall_s`` is provenance, not payload: the wall-clock instant
    the record's source fix entered the system, stamped at ingest and
    carried through derived records so the end-to-end record latency
    (``e2e.record_latency_s``) can be measured wherever the record is
    finally consumed — including after a cross-process shard merge. It
    does not participate in equality: two records carrying the same data
    are the same record regardless of when they were ingested.
    """

    t: float
    value: T
    key: str | None = None
    ingest_wall_s: float | None = field(default=None, compare=False)

    def __reduce__(self):
        # Positional pickle: the generated __getstate__/__setstate__ of a
        # frozen+slots dataclass walks fields() in pure Python per object,
        # which dominated every IPC frame that ships records by value.
        return (type(self), (self.t, self.value, self.key, self.ingest_wall_s))

    def with_value(self, value: Any) -> "Record":
        """A copy carrying a different payload (same time, key, provenance)."""
        return Record(self.t, value, self.key, self.ingest_wall_s)

    def with_key(self, key: str | None) -> "Record[T]":
        """A copy carrying a different partitioning key."""
        return Record(self.t, self.value, key, self.ingest_wall_s)


@dataclass(frozen=True, slots=True)
class Watermark:
    """An assertion that no further records with ``t <= time`` will arrive."""

    time: float


#: What flows through operator channels: data or event-time progress.
StreamElement = Record | Watermark


@dataclass(slots=True)
class StreamStats:
    """Simple throughput counters kept by topics and operators."""

    records_in: int = 0
    records_out: int = 0
    watermarks: int = 0
    dropped: int = 0
    errors: int = 0
    by_key: dict[str, int] = field(default_factory=dict)

    def saw_record(self, record: Record) -> None:
        self.records_in += 1
        if record.key is not None:
            self.by_key[record.key] = self.by_key.get(record.key, 0) + 1

    def emitted(self, n: int = 1) -> None:
        self.records_out += n
