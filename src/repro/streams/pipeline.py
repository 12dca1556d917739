"""Pipeline composition and execution.

A :class:`Pipeline` is a linear chain of operators (fan-in is handled
by merging sources, fan-out by running several pipelines off the same
topic through independent consumer groups — exactly how the datAcron
deployment splits the enriched stream between the predictor, the event
recognizer and the dashboard).

Watermarks can be injected automatically from record timestamps with a
bounded-out-of-orderness policy, mirroring Flink's
``BoundedOutOfOrdernessTimestampExtractor``.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from typing import Any, Iterable, Iterator, Sequence

from .broker import Broker, Consumer
from .operators import Operator
from .record import Record, StreamElement, Watermark


class WatermarkAssigner:
    """Inject periodic watermarks lagging the max seen event time."""

    def __init__(self, out_of_orderness_s: float = 0.0, period_s: float = 60.0):
        if out_of_orderness_s < 0 or period_s <= 0:
            raise ValueError("invalid watermark parameters")
        self.out_of_orderness_s = out_of_orderness_s
        self.period_s = period_s
        self._max_t: float | None = None
        self._last_wm: float | None = None

    def feed(self, record: Record) -> list[StreamElement]:
        """Wrap a record, possibly followed by a fresh watermark."""
        out: list[StreamElement] = [record]
        self._max_t = record.t if self._max_t is None else max(self._max_t, record.t)
        wm_time = self._max_t - self.out_of_orderness_s
        if self._last_wm is None or wm_time - self._last_wm >= self.period_s:
            out.append(Watermark(wm_time))
            self._last_wm = wm_time
        return out

    def final_watermark(self) -> Watermark:
        """A watermark past every record seen (closes all windows)."""
        t = self._max_t if self._max_t is not None else 0.0
        return Watermark(t + self.out_of_orderness_s + 1.0)

    def current_watermark(self) -> float:
        """Where event time currently stands: ``max_t - out_of_orderness``.

        ``-inf`` before any record — the value a multi-input (or
        multi-shard) merge must take the minimum over.
        """
        if self._max_t is None:
            return -math.inf
        return self._max_t - self.out_of_orderness_s


class Pipeline:
    """A chain of operators executed element by element."""

    def __init__(self, operators: Sequence[Operator], name: str = "pipeline"):
        self.operators = list(operators)
        self.name = name
        self.wall_seconds = 0.0
        self.records_processed = 0

    def __repr__(self) -> str:
        chain = " -> ".join(op.name for op in self.operators)
        return f"Pipeline({self.name!r}: {chain})"

    def push(self, element: StreamElement) -> list[StreamElement]:
        """Push one element through the whole chain; returns final outputs."""
        batch: list[StreamElement] = [element]
        for op in self.operators:
            nxt: list[StreamElement] = []
            for el in batch:
                nxt.extend(op.process(el))
            batch = nxt
            if not batch:
                break
        return batch

    def run(
        self,
        elements: Iterable[StreamElement],
        watermarks: WatermarkAssigner | None = None,
        flush: bool = True,
    ) -> list[Record]:
        """Run the pipeline over a bounded element stream; returns output records.

        ``flush=False`` makes the run *incremental*: no stream-closing
        watermark is injected and no operator state is flushed, so a later
        run may continue the same stream. The assigner's
        :meth:`~WatermarkAssigner.final_watermark` (which asserts the stream
        is over) is pushed only on a flushing run — injecting it on every
        call would silently drop in-bound records arriving in the next
        increment as late.

        Wall-clock time is accumulated into :attr:`wall_seconds` so benches
        can report records/second throughput.
        """
        out: list[Record] = []
        start = _time.perf_counter()
        for el in elements:
            if isinstance(el, Record) and watermarks is not None:
                wrapped: list[StreamElement] = watermarks.feed(el)
            else:
                wrapped = [el]
            for w in wrapped:
                if isinstance(w, Record):
                    self.records_processed += 1
                out.extend(r for r in self.push(w) if isinstance(r, Record))
        if flush:
            if watermarks is not None:
                out.extend(r for r in self.push(watermarks.final_watermark()) if isinstance(r, Record))
            out.extend(self.flush())
        self.wall_seconds += _time.perf_counter() - start
        return out

    def flush(self) -> list[Record]:
        """Flush every operator in order, cascading downstream."""
        out: list[Record] = []
        for i, op in enumerate(self.operators):
            pending = op.flush()
            for el in pending:
                batch = [el]
                for downstream in self.operators[i + 1 :]:
                    nxt: list[StreamElement] = []
                    for b in batch:
                        nxt.extend(downstream.process(b))
                    batch = nxt
                out.extend(r for r in batch if isinstance(r, Record))
        return out

    def throughput(self) -> float:
        """Records per wall-clock second over all :meth:`run` calls."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.records_processed / self.wall_seconds


def records_from_values(values: Iterable[tuple[float, Any]], key: str | None = None) -> Iterator[Record]:
    """Lift (t, value) pairs into records."""
    for t, value in values:
        yield Record(t, value, key)


def merge_by_time(*streams: Iterable[Record]) -> Iterator[Record]:
    """K-way merge of record streams by event time (stable across streams).

    This is the fan-in primitive: cross-stream processing (e.g. joining
    surveillance with weather updates) merges sources into one
    time-ordered stream before the operator chain.

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


def drain_consumer(
    consumer: Consumer,
    pipeline: Pipeline,
    watermarks: WatermarkAssigner | None = None,
) -> list[Record]:
    """Poll a broker consumer to exhaustion through a pipeline.

    Each poll is an *incremental* (``flush=False``) run, so records
    arriving in a later poll within the out-of-orderness bound are still
    in time — the stream-closing final watermark is pushed exactly once,
    after the poll loop, followed by the operator flush.
    """
    out: list[Record] = []
    while True:
        batch = consumer.poll()
        if not batch:
            break
        out.extend(pipeline.run(batch, watermarks=watermarks, flush=False))
    if watermarks is not None:
        out.extend(r for r in pipeline.push(watermarks.final_watermark()) if isinstance(r, Record))
    out.extend(pipeline.flush())
    return out


def publish_all(broker: Broker, topic_name: str, records: Iterable[Record]) -> int:
    """Publish a record stream to a topic; returns the number published.

    Uses the topic's batched :meth:`~repro.streams.broker.Topic.publish_many`
    fast path (identical offsets and stats to per-record publishing).
    """
    topic = broker.get_or_create(topic_name)
    return len(topic.publish_many(records))
