"""Cross-process observability harvest for the sharded Figure-2 layer.

:class:`~repro.core.sharded.ShardedRealtimeLayer` executes Figure 2 as N
shard replicas, in-process or one per worker process — and a replica's
metrics, events and traces would otherwise stay behind in its worker
process, leaving the fastest execution path an observability black box.
This mirrors the central problem of distributed mobility-analytics
deployments (edge nodes must ship compact local summaries to a central
analytics point): the replica side freezes its observability state into
a small picklable :class:`ObsHarvest` (:func:`harvest_obs`, shipped as a
per-run :meth:`ObsHarvest.delta`), and the parent folds harvests into
one parent registry / event log / tracer (:func:`fold_harvests`). A
long-lived replica harvests ``since`` its previous harvest, so a poll
copies only the events and spans recorded after it, not its history.

Merge semantics, by metric kind:

* **counters** sum, per shard under ``shard.<i>.<name>`` and merged
  under the bare name — exact, so the merged registry of an N-shard run
  equals the sequential single-shard oracle's counters exactly;
* **gauges** are levels of one shard's own state (its broker, its
  wall), so each is kept under ``shard.<i>.<name>`` only: a bare name
  belongs to the parent's own gauge, and no sum or maximum of shard
  levels is written over it;
* **histograms** add like counters: count, sum and the log-bucket counts
  add, min/max take the extremes
  (:meth:`repro.obs.metrics.Histogram.absorb`), so a fold of per-run
  deltas is the one-shot histogram, quantiles included;
* **events** merge by wall timestamp, tagged with their origin shard;
* **traces** are re-homed with fresh span ids, each shard's ``run`` root
  hung under the parent span the caller names (the sharded layer's
  ``shards`` span of that poll), so a sharded poll is one trace.

The streams layer never imports obs (layering: obs instruments streams
from the outside): the shard hosts carry a harvest as an opaque part of
a reply, and only ``repro.core`` calls the two functions above.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any

from .events import EventLog
from .metrics import MetricsRegistry
from .tracing import Span, Tracer

@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Picklable, mergeable summary of one histogram.

    ``count``/``sum``/``min``/``max`` are exact; ``buckets`` maps each
    log-bucket key to its observation count (see
    :class:`repro.obs.metrics.Histogram`).
    """

    count: int
    sum: float
    min: float
    max: float
    buckets: dict[int, int]


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """A registry frozen to plain data, safe to pickle across processes.

    Callback-backed gauges are materialized to floats here — the live
    closures they hold (topics, consumers) must not cross the process
    boundary.
    """

    counters: dict[str, int]
    gauges: dict[str, float]
    histograms: dict[str, HistogramSnapshot]


def snapshot_registry(registry: MetricsRegistry) -> MetricsSnapshot:
    """Freeze a registry into a :class:`MetricsSnapshot` (reads callbacks)."""
    return MetricsSnapshot(
        counters=registry.counters(),
        gauges=registry.gauges(),
        histograms={
            name: HistogramSnapshot(h.count, h.sum, h.min, h.max, dict(h.buckets))
            for name, h in sorted(registry._histograms.items())
        },
    )


@dataclass(frozen=True, slots=True)
class ObsHarvest:
    """One shard's observability state, serialized for the parent.

    Everything inside is plain data (dicts, tuples, :class:`Span`
    dataclasses), so a harvest survives pickling across the process
    boundary the worker's live registry cannot cross.
    """

    shard: int
    metrics: MetricsSnapshot
    events: tuple[dict[str, Any], ...] = ()
    spans: tuple[Span, ...] = ()
    #: A run wall and a one-off setup cost, as the caller of
    #: :func:`harvest_obs` passed them. The sharded layer passes neither:
    #: a replica's wall is its ``realtime.wall_s`` gauge and its setup is
    #: timed by its host.
    wall_seconds: float = 0.0
    setup_seconds: float = 0.0
    #: How far this harvest read the event log (a ``seq``) and the tracer
    #: (a span id): a harvest ``since`` this one, and a :meth:`delta`
    #: against it, start after them. A harvest that read nothing new
    #: keeps the cursor it started from.
    last_seq: int = -1
    last_span_id: int = -1

    def delta(self, prev: "ObsHarvest | None") -> "ObsHarvest":
        """What happened since ``prev`` (replicas are long-lived and
        re-harvested every run; a replica's first harvest passes
        ``prev=None``).

        Counters subtract exactly. Gauges are levels and stay current.
        Histograms subtract count, sum and bucket counts, keeping only the
        buckets that grew; min/max stay cumulative. Events and spans keep
        only those past ``prev``'s cursor (the tracer may have evicted old
        traces since); wall seconds subtract.
        """
        if prev is None:
            return self
        counters = {
            name: value - prev.metrics.counters.get(name, 0)
            for name, value in self.metrics.counters.items()
            if value - prev.metrics.counters.get(name, 0) != 0
        }
        histograms = {}
        for name, cur in self.metrics.histograms.items():
            before = prev.metrics.histograms.get(name)
            if before is None:
                histograms[name] = cur
                continue
            grown = cur.count - before.count
            if grown <= 0:
                continue
            old = before.buckets
            histograms[name] = HistogramSnapshot(
                grown,
                cur.sum - before.sum,
                cur.min,
                cur.max,
                {key: n - old.get(key, 0) for key, n in cur.buckets.items() if n > old.get(key, 0)},
            )
        return ObsHarvest(
            shard=self.shard,
            metrics=MetricsSnapshot(
                counters=counters, gauges=dict(self.metrics.gauges), histograms=histograms
            ),
            # Both come in cursor order.
            events=self.events[bisect_right(self.events, prev.last_seq, key=itemgetter("seq")):],
            spans=self.spans[bisect_right(self.spans, prev.last_span_id, key=attrgetter("span_id")):],
            wall_seconds=max(0.0, self.wall_seconds - prev.wall_seconds),
            setup_seconds=max(0.0, self.setup_seconds - prev.setup_seconds),
            last_seq=self.last_seq,
            last_span_id=self.last_span_id,
        )


def harvest_obs(
    shard: int,
    registry: MetricsRegistry,
    events: EventLog | None = None,
    tracer: Tracer | None = None,
    wall_seconds: float = 0.0,
    setup_seconds: float = 0.0,
    since: ObsHarvest | None = None,
) -> ObsHarvest:
    """Package one shard's live observability objects into a harvest.

    The metrics are cumulative. The events and spans are those recorded
    after ``since`` (the same shard's previous harvest), or all that are
    kept without it.
    """
    last_seq, last_span_id = (since.last_seq, since.last_span_id) if since is not None else (-1, -1)
    new_events = events.events(after=last_seq) if events is not None else []
    new_spans = tracer.spans(after=last_span_id) if tracer is not None else []
    return ObsHarvest(
        shard=shard,
        metrics=snapshot_registry(registry),
        events=tuple(e.to_dict() for e in new_events),
        spans=tuple(new_spans),
        wall_seconds=float(wall_seconds),
        setup_seconds=float(setup_seconds),
        last_seq=new_events[-1].seq if new_events else last_seq,
        last_span_id=new_spans[-1].span_id if new_spans else last_span_id,
    )


def fold_harvests(
    registry: MetricsRegistry,
    harvests: list[ObsHarvest],
    events: EventLog | None = None,
    tracer: Tracer | None = None,
    parent: Span | None = None,
) -> None:
    """Fold shard harvests into a parent registry (and event log / tracer).

    Counters and histograms land twice, per shard under
    ``shard.<i>.<name>`` and merged under the original name, and their
    folds are *additive* (``inc``/``absorb``), so repeated folds of delta
    harvests accumulate correctly. Gauges land per shard only. Each
    shard's spans hang under ``parent`` (a span of ``tracer``); without
    one, shard roots stay roots.
    """
    batch = sorted((h for h in harvests if h is not None), key=lambda h: h.shard)
    for h in batch:
        for name, value in h.metrics.counters.items():
            if value:
                registry.counter(f"shard.{h.shard}.{name}").inc(value)
                registry.counter(name).inc(value)
        for name, snap in h.metrics.histograms.items():
            if snap.count <= 0:
                continue
            registry.histogram(f"shard.{h.shard}.{name}").absorb(snap)
            registry.histogram(name).absorb(snap)
        for name, value in h.metrics.gauges.items():
            registry.gauge(f"shard.{h.shard}.{name}").set(value)
    if events is not None:
        tagged = [(e, h.shard) for h in batch for e in h.events]
        tagged.sort(key=lambda pair: (float(pair[0]["wall_s"]), pair[1], int(pair[0]["seq"])))
        for ev, shard in tagged:
            events.ingest(ev, shard=shard)
    if tracer is not None:
        for h in batch:
            tracer.absorb(list(h.spans), parent=parent, tags={"shard": h.shard})
