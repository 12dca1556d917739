"""An in-process message broker: the Kafka surrogate.

datAcron components communicate through Apache Kafka topics
(Section 3). This module reproduces the semantics the architecture
relies on — named topics, partitions by key, multiple independent
consumer groups with their own offsets, bounded retention — in a
single deterministic process, so the integrated pipeline (repro.core)
can be wired exactly like Figure 2 and tested end to end.

Storage is columnar in spirit: a partition log is a plain list of
records plus one base offset, so a message's offset is its position in
the log — nothing is wrapped per record on the publish hot path, and a
batched read is one list slice.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Iterable, Iterator

from .record import Record, StreamStats, clock_key


class Topic:
    """A named, partitioned, append-only log of records."""

    def __init__(self, name: str, partitions: int = 1, retention: int | None = None):
        if partitions < 1:
            raise ValueError("a topic needs at least one partition")
        self.name = name
        self.partitions = partitions
        self.retention = retention
        self._logs: list[list[Record]] = [[] for _ in range(partitions)]
        self._base_offsets = [0] * partitions  # offset of the first retained message
        self.stats = StreamStats()
        #: Optional observability hook: called with the overflow count each
        #: time retention trims messages. Attached by ``repro.obs.watch_broker``
        #: — streams stays obs-agnostic.
        self.on_drop = None

    def __repr__(self) -> str:
        return f"Topic({self.name!r}, partitions={self.partitions}, size={self.size()})"

    def partition_for(self, record: Record) -> int:
        """Deterministic partition assignment: hash of key, else round-robin by count."""
        if record.key is not None:
            return _stable_hash(record.key) % self.partitions
        return self.stats.records_in % self.partitions

    def publish(self, record: Record) -> tuple[int, int]:
        """Append a record; returns (partition, offset)."""
        part = self.partition_for(record)
        self.stats.records_in += 1
        log = self._logs[part]
        offset = self._base_offsets[part] + len(log)
        log.append(record)
        if self.retention is not None and len(log) > self.retention:
            overflow = len(log) - self.retention
            del log[:overflow]
            self._base_offsets[part] += overflow
            self.stats.dropped += overflow
            if self.on_drop is not None:
                self.on_drop(overflow)
        return part, offset

    def publish_many(self, records: Iterable[Record]) -> list[tuple[int, int]]:
        """Append a batch of records; returns one (partition, offset) per record.

        The batched fast path: each distinct key is hashed once, the stats
        are updated once for the whole batch, appends run grouped per
        partition, and retention trims at most once per partition. Final log contents, offsets, base
        offsets and drop counts are identical to calling :meth:`publish`
        per record — only ``on_drop`` coalesces (one call per trimmed
        partition with the partition's total overflow, instead of one call
        per overflowing record).
        """
        batch = records if isinstance(records, list) else list(records)
        if not batch:
            return []
        n_parts = self.partitions
        stats = self.stats
        counter = stats.records_in  # round-robin base for keyless records
        stats.records_in += len(batch)
        if n_parts == 1:
            start = self._base_offsets[0] + len(self._logs[0])
            self._logs[0].extend(batch)
            results = [(0, offset) for offset in range(start, start + len(batch))]
        else:
            # Single routing pass: each distinct key is hashed once per batch.
            keys = {record.key for record in batch}
            keys.discard(None)
            part_of_key = {key: _stable_hash(key) % n_parts for key in keys}
            logs = self._logs
            next_offsets = [base + len(log) for base, log in zip(self._base_offsets, logs)]
            results = []
            add_result = results.append
            for record in batch:
                key = record.key
                part = part_of_key[key] if key is not None else counter % n_parts
                counter += 1
                offset = next_offsets[part]
                next_offsets[part] = offset + 1
                logs[part].append(record)
                add_result((part, offset))
        if self.retention is not None:
            for part in range(n_parts):
                log = self._logs[part]
                overflow = len(log) - self.retention
                if overflow > 0:
                    del log[:overflow]
                    self._base_offsets[part] += overflow
                    stats.dropped += overflow
                    if self.on_drop is not None:
                        self.on_drop(overflow)
        return results

    def size(self) -> int:
        """Total retained messages across partitions."""
        return sum(len(log) for log in self._logs)

    def end_offsets(self) -> list[int]:
        """The next-to-be-assigned offset of each partition."""
        return [base + len(log) for base, log in zip(self._base_offsets, self._logs)]

    def read_records(
        self, partition: int, from_offset: int, max_messages: int | None = None
    ) -> tuple[int, list[Record]]:
        """Batched read: (first offset, records) — one list slice, no wrapping.

        The fast path consumers use; offsets are implicit (``first_offset +
        index``) because a partition log is append-only and contiguous.
        """
        if not 0 <= partition < self.partitions:
            raise ValueError(f"partition {partition} out of range")
        log = self._logs[partition]
        base = self._base_offsets[partition]
        start = max(0, from_offset - base)
        end = len(log) if max_messages is None else min(len(log), start + max_messages)
        return base + start, log[start:end]


class Consumer:
    """A stateful reader of a topic within a consumer group.

    Each group tracks its own per-partition offsets, so the same topic can
    feed both the real-time layer and the batch layer independently —
    exactly how the paper's architecture re-reads enriched streams.
    """

    def __init__(self, topic: Topic, group: str):
        self.topic = topic
        self.group = group
        self._offsets = [0] * topic.partitions
        self._next_partition = 0  # where the next capped poll resumes scanning

    def poll(self, max_messages: int | None = None) -> list[Record]:
        """Fetch and acknowledge the next batch, interleaving partitions in offset order.

        The scan starts at a rotating partition: when ``max_messages`` caps
        a batch, the next poll resumes *after* the partition that exhausted
        the budget. A fixed scan order would let a busy low-numbered
        partition starve the rest indefinitely under sustained load.

        Every batch is the stable ``(clock, offset)`` sort of the
        partition slices it fetched, taken in scan order, so ties go to
        the partition scanned first; ``record.t`` is the clock, ``NaN`` last.
        """
        runs: list[tuple[int, list[Record]]] = []
        budget = max_messages
        n = self.topic.partitions
        start = self._next_partition
        for i in range(n):
            part = (start + i) % n
            first_offset, records = self.topic.read_records(part, self._offsets[part], budget)
            if records:
                self._offsets[part] = first_offset + len(records)
                runs.append((first_offset, records))
                if budget is not None:
                    budget -= len(records)
                    if budget <= 0:
                        self._next_partition = (part + 1) % n
                        break
        fetched = [
            (clock_key(record.t, first + i), record)
            for first, records in runs
            for i, record in enumerate(records)
        ]
        fetched.sort(key=itemgetter(0))
        return [record for _, record in fetched]

    def lag(self) -> int:
        """Messages published but not yet consumed by this group."""
        return sum(self.partition_lags())

    def partition_lags(self) -> list[int]:
        """Per-partition messages published but not yet consumed."""
        return [max(0, end - off) for end, off in zip(self.topic.end_offsets(), self._offsets)]


class Broker:
    """The registry of topics. One per integrated system instance."""

    def __init__(self):
        self._topics: dict[str, Topic] = {}

    def create_topic(self, name: str, partitions: int = 1, retention: int | None = None) -> Topic:
        """Create a topic; re-creating an existing name is an error."""
        if name in self._topics:
            raise ValueError(f"topic {name!r} already exists")
        topic = Topic(name, partitions=partitions, retention=retention)
        self._topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        """Look up an existing topic."""
        try:
            return self._topics[name]
        except KeyError:
            raise KeyError(f"unknown topic {name!r}; create it first") from None

    def consumer(self, topic_name: str, group: str) -> Consumer:
        """Open a consumer for ``group`` on the named topic."""
        return Consumer(self.topic(topic_name), group)

    def topics(self) -> Iterator[Topic]:
        return iter(self._topics.values())

    def publish_many(self, topic_name: str, records: Iterable[Record]) -> int:
        """Convenience: batch-publish to a (pre-created) topic; returns the count."""
        return len(self.topic(topic_name).publish_many(records))


@functools.lru_cache(maxsize=1 << 16)
def _stable_hash(key: str) -> int:
    """A deterministic string hash (Python's builtin hash is salted per process).

    Memoized: every publish and every shard route hashes the same few
    entity ids again, and the pure-Python loop costs more than a cache
    hit. Bounded at 65 536 keys, so an unbounded key space costs a fixed
    amount of memory and only re-hashes what fell out.
    """
    h = 2166136261
    for ch in key.encode("utf-8"):
        h = (h ^ ch) * 16777619 % (1 << 32)
    return h
