"""Stream records: the unit of data published to and polled from topics.

Every message exchanged between datAcron components (Figure 2) travels
over Kafka topics as a timestamped, keyed payload. ``Record`` mirrors
that: an event-time timestamp, an optional partitioning key, and an
arbitrary value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Generic, Iterable, Iterator, TypeVar

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


@dataclass(slots=True)
class StreamStats:
    """Throughput counters a topic keeps over what it was given."""

    records_in: int = 0
    dropped: int = 0


def merge_by_time(*streams: Iterable[Record]) -> Iterator[Record]:
    """K-way merge of record streams by event time (stable across streams).

    This is the fan-in primitive: cross-stream processing (e.g. fusing
    surveillance feeds in :mod:`repro.synopses.crossstream`) merges
    sources into one time-ordered stream before processing it.

    Equal timestamps are stable: ties go to the lower-numbered stream,
    and each stream's own order is preserved (only one entry per stream
    is ever in the heap, so ``(t, idx)`` totally orders the heap and the
    record itself is never compared).
    """
    entries = []
    for idx, s in enumerate(streams):
        it = iter(s)
        try:
            first = next(it)
        except StopIteration:
            continue
        entries.append((first.t, idx, first, it))
    heapq.heapify(entries)
    while entries:
        t, idx, rec, it = heapq.heappop(entries)
        yield rec
        try:
            nxt = next(it)
        except StopIteration:
            continue
        heapq.heappush(entries, (nxt.t, idx, nxt, it))
