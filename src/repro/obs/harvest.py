"""Cross-process observability harvest for the sharded substrate.

``ShardedPipeline`` and :class:`~repro.core.sharded.
ShardedRealtimeLayer` execute Figure 2 as N shard replicas, in-process
or one per worker process — and until this module existed, a replica's
metrics, events and traces stayed behind in its worker process, leaving
the fastest execution path an observability black box. This mirrors the central problem of distributed
mobility-analytics deployments (edge nodes must ship compact local
summaries to a central analytics point): the worker side serializes its
observability state into a small picklable :class:`ObsHarvest`, and the
parent folds harvests into one merged registry / event log / tracer.

Merge semantics, by metric kind:

* **counters** sum — exact, so the merged registry of an N-shard run
  equals the sequential single-shard oracle's counters exactly;
* **gauges** are levels, so each shard's value is kept under a
  ``shard.<i>.<name>`` family and one merged aggregate is computed per
  rule (``sum`` for depths/sizes, ``max`` for walls and lags, ``last``
  for free-running levels) — see :data:`DEFAULT_GAUGE_RULES`;
* **histograms** merge exact count/sum/min/max and combine reservoirs
  by deterministic weighted sampling
  (:meth:`repro.obs.metrics.Histogram.absorb`);
* **events** merge by wall timestamp, tagged with their origin shard;
* **traces** are re-homed with fresh (shard-namespaced) trace ids and
  re-parented under one synthetic ``sharded.run`` root span.

The streams layer never imports obs (layering: obs instruments streams
from the outside), so :class:`ShardedObsPlane` is handed to
``run_sharded``/``ShardedPipeline`` as an opaque ``obs=`` object: the
substrate only touches ``obs.worker`` (a picklable per-shard recipe)
and ``obs.fold(harvests)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any

from .events import EventLog
from .instrument import instrument_pipeline
from .metrics import MetricsRegistry, merge_reservoirs
from .tracing import Span, Tracer

#: First-match gauge aggregation rules: a parallel run is as long as its
#: slowest shard (``max`` for walls/lags/error levels), while sizes,
#: depths and throughputs add up (``sum``). ``last`` keeps the value of
#: the highest-numbered shard (for levels where neither fits).
DEFAULT_GAUGE_RULES: tuple[tuple[str, str], ...] = (
    ("*.wall_s", "max"),
    ("*.error_rate", "max"),
    ("*.watermark_lag_s", "max"),
    ("*", "sum"),
)

_GAUGE_AGGREGATORS = ("sum", "max", "last")


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Picklable, mergeable summary of one histogram.

    ``count``/``sum``/``min``/``max`` are exact; ``reservoir`` is the
    uniform observation sample quantiles are read from.
    """

    count: int
    sum: float
    min: float
    max: float
    reservoir: tuple[float, ...]
    reservoir_size: int = 512


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """A registry frozen to plain data, safe to pickle across processes.

    Callback-backed gauges are materialized to floats here — the live
    closures they hold (operators, consumers, pipelines) must not cross
    the process boundary.
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
            name: HistogramSnapshot(
                count=h.count,
                sum=h.sum,
                min=h.min,
                max=h.max,
                reservoir=h.samples(),
                reservoir_size=h.reservoir_size,
            )
            for name, h in sorted(registry._histograms.items())
        },
    )


def merge_histogram_snapshots(
    parts: list[HistogramSnapshot], reservoir_size: int = 512, seed: int = 0
) -> HistogramSnapshot:
    """Merge histogram summaries: exact count/sum/min/max, sampled reservoir.

    Deterministic for a fixed ``seed`` and part order — the weighted
    reservoir merge draws through one seeded RNG.
    """
    live = [p for p in parts if p.count > 0]
    if not live:
        return HistogramSnapshot(0, 0.0, float("inf"), float("-inf"), (), reservoir_size)
    rng = random.Random(seed)
    reservoir = merge_reservoirs(
        [(p.count, list(p.reservoir)) for p in live], reservoir_size, rng
    )
    return HistogramSnapshot(
        count=sum(p.count for p in live),
        sum=sum(p.sum for p in live),
        min=min(p.min for p in live),
        max=max(p.max for p in live),
        reservoir=tuple(reservoir),
        reservoir_size=reservoir_size,
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
    wall_seconds: float = 0.0
    #: One-off replica construction cost (factory + instrumentation),
    #: reported apart from ``wall_seconds`` so critical-path speedups
    #: compare steady-state compute, not process startup.
    setup_seconds: float = 0.0

    def delta(self, prev: "ObsHarvest | None") -> "ObsHarvest":
        """What happened since ``prev`` (replicas are long-lived and
        re-harvested every run; a replica's first harvest passes
        ``prev=None``).

        Counters subtract exactly. Gauges are levels and stay current.
        Histograms subtract count/sum exactly; min/max stay cumulative and
        the reservoir is the current sample (quantiles over a delta are
        therefore approximate — the exact fields are not). Events keep
        only sequence numbers past ``prev``'s; spans are the append-only
        suffix; wall seconds subtract.
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
            histograms[name] = HistogramSnapshot(
                count=grown,
                sum=cur.sum - before.sum,
                min=cur.min,
                max=cur.max,
                reservoir=cur.reservoir,
                reservoir_size=cur.reservoir_size,
            )
        last_seq = max((int(e["seq"]) for e in prev.events), default=-1)
        return ObsHarvest(
            shard=self.shard,
            metrics=MetricsSnapshot(
                counters=counters, gauges=dict(self.metrics.gauges), histograms=histograms
            ),
            events=tuple(e for e in self.events if int(e["seq"]) > last_seq),
            spans=self.spans[len(prev.spans):],
            wall_seconds=max(0.0, self.wall_seconds - prev.wall_seconds),
            setup_seconds=max(0.0, self.setup_seconds - prev.setup_seconds),
        )


def harvest_obs(
    shard: int,
    registry: MetricsRegistry,
    events: EventLog | None = None,
    tracer: Tracer | None = None,
    wall_seconds: float = 0.0,
    setup_seconds: float = 0.0,
) -> ObsHarvest:
    """Package one shard's live observability objects into a harvest."""
    return ObsHarvest(
        shard=shard,
        metrics=snapshot_registry(registry),
        events=tuple(e.to_dict() for e in events.events()) if events is not None else (),
        spans=tuple(tracer.spans()) if tracer is not None else (),
        wall_seconds=float(wall_seconds),
        setup_seconds=float(setup_seconds),
    )


def _gauge_rule(name: str, rules: tuple[tuple[str, str], ...]) -> str:
    for pattern, rule in rules:
        if fnmatchcase(name, pattern):
            if rule not in _GAUGE_AGGREGATORS:
                raise ValueError(f"unknown gauge aggregate rule {rule!r} for {pattern!r}")
            return rule
    return "last"


def _set_gauge(registry: MetricsRegistry, name: str, value: float) -> None:
    # A callback-backed parent gauge is the parent's own live view of the
    # same state (e.g. ShardedRealtimeLayer's shard.<i>.wall_s); a folded
    # snapshot value must not fight it.
    g = registry.gauge(name)
    if g.callback_backed:
        return
    g.set(value)


def fold_harvests(
    registry: MetricsRegistry,
    harvests: list[ObsHarvest],
    events: EventLog | None = None,
    tracer: Tracer | None = None,
    gauge_rules: tuple[tuple[str, str], ...] = DEFAULT_GAUGE_RULES,
    root_name: str = "sharded.run",
) -> Span | None:
    """Fold shard harvests into a parent registry (and event log / tracer).

    Every harvested family lands twice: per-shard under
    ``shard.<i>.<name>`` and merged under the original name. Counter and
    histogram folds are *additive* (``inc``/``absorb``), so repeated
    folds of delta harvests accumulate correctly; gauge aggregates are
    recomputed from the current batch. Returns the synthetic root span
    the shard traces were re-parented under (``None`` without a tracer).
    """
    batch = sorted((h for h in harvests if h is not None), key=lambda h: h.shard)
    gauge_values: dict[str, list[float]] = {}
    for h in batch:
        for name, value in h.metrics.counters.items():
            if value:
                registry.counter(f"shard.{h.shard}.{name}").inc(value)
                registry.counter(name).inc(value)
        for name, snap in h.metrics.histograms.items():
            if snap.count <= 0:
                continue
            for target in (f"shard.{h.shard}.{name}", name):
                registry.histogram(target, reservoir_size=snap.reservoir_size).absorb(
                    snap.count, snap.sum, snap.min, snap.max, snap.reservoir
                )
        for name, value in h.metrics.gauges.items():
            _set_gauge(registry, f"shard.{h.shard}.{name}", value)
            gauge_values.setdefault(name, []).append(value)
        _set_gauge(registry, f"shard.{h.shard}.wall_s", h.wall_seconds)
        # Delta harvests carry setup only in the run that built the
        # replica; zero deltas must not clobber the recorded cost.
        if h.setup_seconds > 0.0:
            _set_gauge(registry, f"shard.{h.shard}.setup_s", h.setup_seconds)
    for name, values in sorted(gauge_values.items()):
        rule = _gauge_rule(name, gauge_rules)
        if rule == "sum":
            merged = sum(values)
        elif rule == "max":
            merged = max(values)
        else:
            merged = values[-1]
        _set_gauge(registry, name, merged)
    if events is not None:
        tagged = [(e, h.shard) for h in batch for e in h.events]
        tagged.sort(key=lambda pair: (float(pair[0]["wall_s"]), pair[1], int(pair[0]["seq"])))
        for ev, shard in tagged:
            events.ingest(ev, shard=shard)
    root: Span | None = None
    if tracer is not None and batch:
        root = tracer.start_trace(root_name, shards=len(batch))
        for h in batch:
            tracer.absorb(list(h.spans), parent=root, tags={"shard": h.shard})
        tracer.finish(root)
    return root


@dataclass(slots=True)
class _ShardObs:
    """The live observability objects of one shard replica."""

    registry: MetricsRegistry
    events: EventLog
    tracer: Tracer


@dataclass(slots=True)
class ShardObsWorker:
    """The picklable worker-side recipe of the obs plane.

    This is the *only* part of :class:`ShardedObsPlane` that crosses the
    process boundary: it holds no live objects, just how to build a shard's
    registry/event-log/tracer (``setup``) and how to freeze them into a
    picklable :class:`ObsHarvest` after a run (``harvest``).
    """

    seed: int = 0
    instrument: bool = True
    event_capacity: int = 256
    max_spans: int = 4096

    def setup(self, shard: int, pipeline: Any = None) -> _ShardObs:
        """Build the shard-local obs objects, instrumenting ``pipeline``."""
        obs = _ShardObs(
            registry=MetricsRegistry(seed=self.seed),
            events=EventLog(capacity=self.event_capacity),
            tracer=Tracer(max_spans=self.max_spans),
        )
        if self.instrument and pipeline is not None:
            instrument_pipeline(pipeline, obs.registry)
        return obs

    def harvest(
        self,
        shard: int,
        obs: _ShardObs,
        wall_seconds: float,
        setup_seconds: float = 0.0,
    ) -> ObsHarvest:
        """Freeze the shard's obs state; adds a synthetic ``shard.run`` span.

        The span is stamped on a shard-local zero-based clock (worker
        ``perf_counter`` origins are not comparable across processes), so
        its duration — the shard's wall — is the meaningful part.
        ``setup_seconds`` (replica build cost) travels beside the wall,
        never inside it.
        """
        root = obs.tracer.start_trace("shard.run", shard=shard)
        root.start = 0.0
        root.end = float(wall_seconds)
        return harvest_obs(
            shard,
            obs.registry,
            obs.events,
            obs.tracer,
            wall_seconds=wall_seconds,
            setup_seconds=setup_seconds,
        )


class ShardedObsPlane:
    """Parent-side coordinator: pass as ``obs=`` to the sharded substrate.

    ``run_sharded``/``ShardedPipeline`` treat this duck-typed: they call
    ``plane.worker.setup(...)``/``.harvest(...)`` inside each shard
    (worker process or not) and ``plane.fold(deltas)`` once per run in
    the parent. The folded state lives in :attr:`registry`,
    :attr:`events` and :attr:`tracer` — ready for ``render_openmetrics``
    or a :class:`~repro.obs.export.MetricsServer`.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        events: EventLog | None = None,
        tracer: Tracer | None = None,
        seed: int = 0,
        instrument: bool = True,
        gauge_rules: tuple[tuple[str, str], ...] = DEFAULT_GAUGE_RULES,
    ):
        self.registry = registry if registry is not None else MetricsRegistry(seed=seed)
        self.events = events if events is not None else EventLog()
        self.tracer = tracer if tracer is not None else Tracer()
        self.worker = ShardObsWorker(seed=seed, instrument=instrument)
        self.gauge_rules = tuple(gauge_rules)
        self.harvests: list[ObsHarvest] = []
        self.root_span: Span | None = None

    def fold(self, harvests: list[ObsHarvest]) -> Span | None:
        """Merge one run's shard harvests into the parent-side state."""
        batch = sorted((h for h in harvests if h is not None), key=lambda h: h.shard)
        self.harvests.extend(batch)
        self.root_span = fold_harvests(
            self.registry,
            batch,
            events=self.events,
            tracer=self.tracer,
            gauge_rules=self.gauge_rules,
        )
        return self.root_span

    def shard_walls(self) -> list[float]:
        """Per-shard wall seconds (``shard.<i>.wall_s``), in shard order."""
        walls: dict[int, float] = {}
        for name, value in self.registry.gauges("shard.").items():
            head, _, tail = name[len("shard."):].partition(".")
            if tail == "wall_s" and head.isdigit():
                walls[int(head)] = value
        return [walls[i] for i in sorted(walls)]
