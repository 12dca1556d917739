"""Dataflow operators: the Flink-surrogate processing vocabulary.

Operators consume :class:`~repro.streams.record.StreamElement`s and emit
zero or more elements. They are synchronous and deterministic — a
record pushed in produces its outputs immediately — which makes the
latency and throughput of every paper component directly measurable.

The vocabulary covers what the datAcron real-time layer needs:
map / filter / flat-map, key-by re-keying, per-key stateful processing
(the basis of the in-situ statistics and the synopses generator) and
union of streams.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Generic, Iterable, TypeVar

from .record import Record, StreamElement, StreamStats, Watermark

T = TypeVar("T")
U = TypeVar("U")


class Operator:
    """Base class: push elements in with :meth:`process`, get outputs back."""

    name = "operator"

    def __init__(self):
        self.stats = StreamStats()
        #: Optional metrics hook (an ``repro.obs.OperatorProbe``); attached by
        #: ``repro.obs.instrument_operator`` — streams stays obs-agnostic.
        self.probe = None

    def process(self, element: StreamElement) -> list[StreamElement]:
        """Feed one element; returns emitted elements (watermarks pass through)."""
        if isinstance(element, Watermark):
            out = self.on_watermark(element)
            self.stats.watermarks += 1
            return out
        self.stats.saw_record(element)
        if self.probe is not None:
            start = perf_counter()
            out = self.on_record(element)
            elapsed = perf_counter() - start
        else:
            out = self.on_record(element)
        n_out = sum(1 for e in out if isinstance(e, Record))
        if self.probe is not None:
            self.probe.observe(n_out, elapsed)
        self.stats.emitted(n_out)
        return out

    def process_many(self, elements: Iterable[StreamElement]) -> list[StreamElement]:
        """Feed a batch of elements, concatenating outputs in order."""
        out: list[StreamElement] = []
        for el in elements:
            out.extend(self.process(el))
        return out

    def on_record(self, record: Record) -> list[StreamElement]:
        raise NotImplementedError

    def on_watermark(self, watermark: Watermark) -> list[StreamElement]:
        """Default: forward the watermark unchanged."""
        return [watermark]

    def flush(self) -> list[StreamElement]:
        """Emit anything still buffered (end-of-stream). Default: nothing."""
        return []

    def pending(self) -> int:
        """How many elements are buffered awaiting a watermark (queue depth)."""
        return 0


class Map(Operator):
    """Apply a function to every record value."""

    name = "map"

    def __init__(self, fn: Callable[[Any], Any]):
        super().__init__()
        self.fn = fn

    def on_record(self, record: Record) -> list[StreamElement]:
        return [record.with_value(self.fn(record.value))]


class Filter(Operator):
    """Keep only records whose value satisfies the predicate."""

    name = "filter"

    def __init__(self, predicate: Callable[[Any], bool]):
        super().__init__()
        self.predicate = predicate

    def on_record(self, record: Record) -> list[StreamElement]:
        if self.predicate(record.value):
            return [record]
        self.stats.dropped += 1
        return []


class FlatMap(Operator):
    """Apply a function returning an iterable; emit one record per item."""

    name = "flat_map"

    def __init__(self, fn: Callable[[Any], Iterable[Any]]):
        super().__init__()
        self.fn = fn

    def on_record(self, record: Record) -> list[StreamElement]:
        return [record.with_value(v) for v in self.fn(record.value)]


class KeyBy(Operator):
    """Re-key records with a key extractor over the value."""

    name = "key_by"

    def __init__(self, key_fn: Callable[[Any], str]):
        super().__init__()
        self.key_fn = key_fn

    def on_record(self, record: Record) -> list[StreamElement]:
        return [record.with_key(self.key_fn(record.value))]


class KeyedProcess(Operator, Generic[T]):
    """Per-key stateful processing: the workhorse of the real-time layer.

    ``init_state`` builds the state for a new key; ``fn(state, record)``
    returns an iterable of output values. The in-situ statistics operator
    and the synopses generator are built on this.
    """

    name = "keyed_process"

    def __init__(self, init_state: Callable[[], T], fn: Callable[[T, Record], Iterable[Any]]):
        super().__init__()
        self.init_state = init_state
        self.fn = fn
        self._states: dict[str, T] = {}

    def state_of(self, key: str) -> T:
        if key not in self._states:
            self._states[key] = self.init_state()
        return self._states[key]

    def keys(self) -> list[str]:
        return list(self._states)

    def on_record(self, record: Record) -> list[StreamElement]:
        if record.key is None:
            raise ValueError(f"{self.name} requires keyed records; got key=None at t={record.t}")
        state = self.state_of(record.key)
        return [record.with_value(v) for v in self.fn(state, record)]


class Union(Operator):
    """Pass-through used to merge several upstream channels into one."""

    name = "union"

    def on_record(self, record: Record) -> list[StreamElement]:
        return [record]

    def on_watermark(self, watermark: Watermark) -> list[StreamElement]:
        # A correct multi-input union holds the minimum watermark across inputs.
        # The pipeline runner merges inputs by time before reaching operators,
        # so forwarding is sufficient here; multi-input alignment lives in
        # :func:`repro.streams.pipeline.merge_by_time`.
        return [watermark]


class Peek(Operator):
    """Observe records without altering them (for probes and metrics)."""

    name = "peek"

    def __init__(self, fn: Callable[[Record], None]):
        super().__init__()
        self.fn = fn

    def on_record(self, record: Record) -> list[StreamElement]:
        self.fn(record)
        return [record]


class LatencyProbe(Operator):
    """Record-count and event-time-span probe used by the benchmark harness."""

    name = "latency_probe"

    def __init__(self):
        super().__init__()
        self.count = 0
        self.first_t: float | None = None
        self.max_t: float | None = None

    def on_record(self, record: Record) -> list[StreamElement]:
        self.count += 1
        if self.first_t is None:
            self.first_t = record.t
        # Track the max, not the last: out-of-order event times must not
        # shrink (or negate) the reported span.
        if self.max_t is None or record.t > self.max_t:
            self.max_t = record.t
        return [record]

    def event_time_span(self) -> float:
        if self.first_t is None or self.max_t is None:
            return 0.0
        return self.max_t - self.first_t
