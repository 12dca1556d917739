"""The real-time layer of the datAcron architecture (Figure 2).

Figure 2 is one dataflow with two halves, each written once here:

    raw surveillance -> online cleaning -> in-situ statistics
        -> synopses generation (critical points)
        -> region / port link discovery          :class:`EntityStages`
    ------------------------------------------------------------------
        -> moving-object proximity
        -> complex event recognition & forecasting
        -> real-time dashboard, health           :class:`GlobalStages`

The per-entity half keeps state per ``entity_id`` only; the cross-entity
half needs every entity in one place. :class:`RealtimeLayer` is both in
one loop; a shard replica of :mod:`repro.core.sharded` is an
:class:`EntityStages`, and the sharded layer feeds the same
:class:`GlobalStages` from the merged stream.

All hops go through broker topics, so each stage can also be consumed
independently (the dashboard and the batch layer read the same topics
through their own consumer groups).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import time as wall_clock
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..cep import (
    TURN_ALPHABET,
    WayebEngine,
    north_to_south_reversal,
    turn_event_stream,
)
from ..datasources import generate_ports, generate_regions
from ..datasources.weather import WeatherField
from ..geo import FixColumns, PositionFix
from ..insitu import ALL_ISSUES, AreaEventDetector, QualityReport, RegionIndex, clean_batch
from ..linkdiscovery import (
    MovingProximityDiscoverer,
    PortLinkDiscoverer,
    RegionLinkDiscoverer,
)
from ..obs import (
    EventLog,
    HealthMonitor,
    MetricsRegistry,
    OperatorProbe,
    Span,
    Tracer,
    consumer_lags,
    default_realtime_rules,
    instrument_broker,
    operator_rates,
    watch_broker,
)
from ..streams import Broker, Record, merge_shard_outputs
from ..synopses import SynopsesGenerator
from ..va import Dashboard

from .config import (
    ALL_TOPICS,
    SystemConfig,
    TOPIC_CLEAN,
    TOPIC_EVENTS,
    TOPIC_LINKS,
    TOPIC_RAW,
    TOPIC_SYNOPSES,
)


#: A poll with fewer fixes than this, or fewer fixes per entity, crosses
#: the stages per fix: building its columns and reading the entities'
#: carried state costs more than the screens save (EXPERIMENTS.md E18).
_COLUMNS_MIN_ROWS = 256
_COLUMNS_MIN_ROWS_PER_ENTITY = 2


@dataclass(frozen=True)
class RealtimeReport:
    """Counters of a real-time run, as :func:`report_from` reads them."""

    raw_fixes: int = 0
    clean_fixes: int = 0
    critical_points: int = 0
    area_events: int = 0
    links: int = 0
    proximity_links: int = 0
    cep_detections: int = 0
    cep_forecasts: int = 0
    quality: QualityReport = field(default_factory=QualityReport)

    @property
    def compression_ratio(self) -> float:
        if self.clean_fixes == 0:
            return 0.0
        return 1.0 - self.critical_points / self.clean_fixes


def report_from(metrics: MetricsRegistry, prefix: str = "") -> RealtimeReport:
    """A run's counts as the registry holds them, each field read from one
    counter; ``prefix`` ``shard.<i>.`` reads one shard's folded families.
    Reading creates no counter."""
    counts = metrics.counters(prefix)

    def count(name: str) -> int:
        return counts.get(prefix + name, 0)

    proximity = count("op.proximity.records_out")
    flagged = {issue: count(f"op.clean.flagged.{issue}") for issue in ALL_ISSUES}
    return RealtimeReport(
        raw_fixes=count("stage.raw.records"),
        clean_fixes=count("op.clean.records_out"),
        critical_points=count("op.synopses.records_out"),
        area_events=count("op.area_events.records_out"),
        links=count("op.link_discovery.records_out") + proximity,
        proximity_links=proximity,
        cep_detections=count("cep.detections"),
        cep_forecasts=count("cep.forecasts"),
        quality=QualityReport(
            count("op.clean.records_in"),
            count("op.clean.records_out"),
            {issue: n for issue, n in flagged.items() if n},
        ),
    )


class _Trace:
    """One poll on its owner's clock: a ``run`` root span and one finished
    child per region the poll crossed, tagged with its records in and out."""

    __slots__ = ("tracer", "root", "finished")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.root = tracer.start_trace("run")
        self.finished: list[Span] = []

    def start(self, name: str) -> Span:
        return self.tracer.start_span(name, self.root)

    def done(self, span: Span, n_in: int, n_out: int) -> None:
        span.tags["n_in"], span.tags["n_out"] = n_in, n_out
        self.finished.append(self.tracer.finish(span))


class Figure2Plane:
    """What every holder of the Figure-2 topics starts from: its config, an
    obs plane of its own, the five topics on an instrumented and watched
    broker, and a ``with`` lifetime.

    The tracer is the plane's only clock: each ``run()`` is one ``run``
    root span whose children are the run's regions, and the regions in
    ``_PROBED`` each have an ``op.<name>.*`` probe, registered here.
    """

    _PROBED: tuple[str, ...] = ()

    def __init__(self, config: SystemConfig | None = None):
        self.config = config or SystemConfig()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog(capacity=self.config.event_log_capacity)
        self.broker = Broker()
        for topic in ALL_TOPICS:
            self.broker.create_topic(topic, partitions=2)
        instrument_broker(self.broker, self.metrics)
        watch_broker(self.broker, self.events)
        self._probes = {name: OperatorProbe(self.metrics, name) for name in self._PROBED}
        self._wall = self.metrics.gauge("realtime.wall_s")

    @contextmanager
    def _poll(self) -> Iterator[_Trace]:
        """One ``run()``'s trace. Every root's duration adds to
        ``realtime.wall_s``; once the root is closed, each probed region
        is observed, once, unless the poll raised."""
        trace = _Trace(self.tracer)
        try:
            yield trace
        finally:
            self._wall.set(self._wall.value() + self.tracer.finish(trace.root).duration_s)
        for span in trace.finished:
            probe = self._probes.get(span.name)
            if probe is not None:
                probe.observe(span.tags["n_out"], span.duration_s, n_in=span.tags["n_in"])

    def _publish(self, topics: dict[str, list[Record]]) -> int:
        """One ``publish_many`` per topic; how many records went out."""
        n = 0
        for topic, records in topics.items():
            if records:
                self.broker.publish_many(topic, records)
                n += len(records)
        return n

    def close(self) -> None:
        """Nothing to release, unless a subclass hosts worker processes."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class GlobalStages:
    """The cross-entity half of Figure 2, over one owner's obs plane.

    Proximity pairs entities, the Wayeb engine consumes one global symbol
    sequence and the dashboard is one situational picture, so none of them
    can be entity-partitioned: whoever owns the whole stream shows every
    poll's clean fixes and critical points to :meth:`see` and closes the
    poll with :meth:`evaluate`, each stage a region of the owner's trace
    (:data:`REGIONS`). What they find is counted by the owner's
    ``proximity`` probe and the engine's ``cep.*`` counters.
    """

    #: The regions this half adds to its owner's ``run()``, in poll order;
    #: ``health`` comes after the owner's publish.
    REGIONS = ("dashboard", "proximity", "cep", "health")

    def __init__(
        self,
        cfg: SystemConfig,
        metrics: MetricsRegistry,
        events: EventLog,
        cep_training_symbols: list[str] | None = None,
    ):
        self.metrics = metrics
        self.events = events
        self.proximity = MovingProximityDiscoverer(
            cfg.bbox, cfg.proximity_space_m, cfg.proximity_time_s, cell_deg=cfg.grid_cell_deg,
            registry=metrics,
        )
        self.cep: WayebEngine | None = None
        if cep_training_symbols:
            self.cep = WayebEngine(
                north_to_south_reversal(), TURN_ALPHABET, order=1, threshold=0.5, horizon=60,
                registry=metrics,
            )
            self.cep.train(cep_training_symbols)
        # Online-cleaning rejection rate, the error-rate signal the health
        # monitor's default rules watch: raw minus clean over raw, from the
        # entity stages' own counters (folded ones on the sharded layer).
        raw, clean = metrics.counter("stage.raw.records"), metrics.counter("op.clean.records_out")
        metrics.gauge(
            "realtime.error_rate",
            fn=lambda: (raw.value - clean.value) / raw.value if raw.value else 0.0,
        )
        self.health = default_realtime_rules(HealthMonitor(metrics, event_log=events))
        self.dashboard = Dashboard(cfg.bbox, registry=metrics, health=self.health)
        # Ingest wall stamp (record provenance) to enriched output: the
        # paper's headline latency, measured by whoever owns the full chain.
        self._e2e_latency = metrics.histogram("e2e.record_latency_s")

    def see(
        self, trace: _Trace, clean: list[Record], synopses: list[Record]
    ) -> tuple[list[Record], list[Record]]:
        """Show one poll's clean-topic and synopses records to every global
        stage, a region each, the critical points in the shard merge's
        ``(t, key)`` order on every composition: the proximity link records
        come back in that order, and the CEP detections as event records."""
        span = trace.start("dashboard")
        synopses = merge_shard_outputs([synopses])
        points = [record.value for record in synopses]
        self.dashboard.ingest_fixes([record.value for record in clean])
        for cp in points:
            self.dashboard.ingest_critical_point(cp)
        trace.done(span, len(clean) + len(points), 0)
        if not points:
            return [], []
        span = trace.start("proximity")
        found = self.proximity.process_many([cp.fix for cp in points])
        # Enriched now, all of them: every point is found at a fix of its
        # own poll (an idle entity is not ended again), so all are stamped.
        enriched = wall_clock()
        for record in synopses:
            self._e2e_latency.observe(enriched - record.ingest_wall_s)
        links = [
            Record(link.t, link, link.source_id, record.ingest_wall_s)
            for record, point_links in zip(synopses, found)
            for link in point_links
        ]
        trace.done(span, len(points), len(links))
        if self.cep is None:
            return links, []
        # Complex event recognition & forecasting over the poll's turns.
        span = trace.start("cep")
        turns = list(turn_event_stream(points))
        run = self.cep.run(turns)
        for det in run.detections:
            self.dashboard.ingest_alert(det.t, "NorthToSouthReversal")
            self.events.emit(
                "warn", "cep", "detection", "NorthToSouthReversal",
                t=det.t, position=det.position,
            )
        trace.done(span, len(turns), len(run.detections) + len(run.forecasts))
        return links, [Record(det.t, det) for det in run.detections]

    def evaluate(self, trace: _Trace) -> None:
        """The health rules, once the owner has published the poll."""
        span = trace.start("health")
        self.health.evaluate()
        trace.done(span, 0, 0)

    def system_metrics(self) -> dict[str, Any]:
        """The observability view: registry snapshot plus the derived
        per-operator rates, consumer lags, health states and recent
        structured events the dashboard shows."""
        self.health.evaluate()
        snap = self.metrics.snapshot()
        snap["operators"] = operator_rates(self.metrics)
        snap["consumer_lag"] = consumer_lags(self.metrics)
        snap["health"] = self.health.snapshot()
        snap["events"] = self.events.snapshot()
        return snap


@dataclass(slots=True)
class _Poll:
    """What the entity stages computed for one ``run()``, not yet published
    or counted: the four topics' records and the run's cleaning verdicts."""

    raw: list[Record]
    #: The poll row of each clean record, increasing.
    rows: np.ndarray
    clean: list[Record]
    synopses: list[Record]
    #: Region then port links of each critical point, in point order.
    links: list[Record]
    quality: QualityReport


class EntityStages(Figure2Plane):
    """The per-entity half of Figure 2, with its own obs plane and broker.

    Every stage here keeps state per ``entity_id`` only, so this class is
    also exactly what one shard of the sharded layer runs. A poll crosses
    the stages one stage at a time — every fix through cleaning, then
    every clean fix through area events, and so on — and each stage is
    one region of the run's trace, observed once per run, not once per
    fix. The closing ``publish`` region is traced but has no probe here:
    whoever publishes a whole poll counts it (:class:`RealtimeLayer`, or
    the sharded layer over its replicas).
    """

    _PROBED = ("clean", "area_events", "synopses", "link_discovery")

    def __init__(self, config: SystemConfig | None = None):
        super().__init__(config)
        cfg = self.config
        self.regions = generate_regions(cfg.n_regions, bbox=cfg.bbox, seed=cfg.seed)
        self.ports = generate_ports(cfg.n_ports, bbox=cfg.bbox, seed=cfg.seed + 1)
        self.synopses = SynopsesGenerator(cfg.synopses, registry=self.metrics)
        self.area_detector = AreaEventDetector(RegionIndex(self.regions, cell_deg=cfg.grid_cell_deg))
        self.region_links = RegionLinkDiscoverer(
            self.regions, cfg.bbox, cell_deg=cfg.grid_cell_deg, use_masks=True,
            registry=self.metrics,
        )
        self.port_links = PortLinkDiscoverer(
            self.ports, cfg.bbox, threshold_m=cfg.near_port_threshold_m, cell_deg=cfg.grid_cell_deg,
            registry=self.metrics,
        )
        self.weather = WeatherField(bbox=cfg.bbox, seed=cfg.seed + 2)
        #: The last committed poll's clean rows and the records it
        #: published per topic, in publish order: a shard replica's reply.
        self._committed: tuple[np.ndarray, dict[str, list[Record]]] = (np.empty(0, dtype=np.intp), {})

    @property
    def report(self) -> RealtimeReport:
        """The layer's cumulative counts, read from its registry."""
        return report_from(self.metrics)

    def run(self, fixes: Iterable[PositionFix], columns: FixColumns | None = None) -> RealtimeReport:
        """Push a bounded surveillance stream through the layer.

        Every stage's output for the poll is computed first and committed
        — published, counted, observed — at the end, so a run that raises
        publishes nothing and leaves every counter equal to its topic.
        ``columns``, when the caller already holds ``FixColumns.of(fixes)``
        (a pooled worker's decoded frame), are screened instead of built;
        the poll's size decides either way whether the screens run.
        """
        self.events.emit("info", "realtime", "run_started")
        with self._poll() as trace:
            self._commit(self._entity_stages(fixes, columns, trace), trace)
        report = self.report
        self.events.emit(
            "info", "realtime", "run_finished",
            raw=report.raw_fixes, clean=report.clean_fixes,
            critical_points=report.critical_points,
        )
        return report

    def _entity_stages(self, fixes: Iterable[PositionFix], columns: FixColumns | None, trace: _Trace) -> _Poll:
        """The poll through each per-entity stage as one batch."""
        fixes = fixes if isinstance(fixes, list) else list(fixes)
        # Record provenance: the wall-clock instant the poll was handed
        # over, one stamp for every record derived from it (None on an
        # empty run, which derives none).
        stamp = wall_clock() if fixes else None
        quality = QualityReport()
        raw: list[Record] = []
        rows = np.empty(0, dtype=np.intp)
        clean: list[PositionFix] = []
        clean_records: list[Record] = []
        if fixes:
            # Ingest and online cleaning. The poll's columns are built here
            # (unless the caller has them), once, for every stage to screen
            # — or dropped if the poll is too small to pay for them; a
            # clean-topic record is the raw-topic record of a fix that passed.
            span = trace.start("clean")
            raw = [Record(fix.t, fix, fix.entity_id, stamp) for fix in fixes]
            n = len(fixes)
            if n < _COLUMNS_MIN_ROWS or n < _COLUMNS_MIN_ROWS_PER_ENTITY * len({fix.entity_id for fix in fixes}):
                columns = None
            elif columns is None:
                columns = FixColumns.of(fixes)
            clean, rows = clean_batch(fixes, self.config.quality, quality, columns)
            if columns is not None:
                columns = columns.take(rows)
            clean_records = [raw[i] for i in rows.tolist()]
            trace.done(span, n, len(clean))
        if clean:
            # Low-level area events.
            span = trace.start("area_events")
            trace.done(span, len(clean), len(self.area_detector.process_many(clean, columns)))
        # Synopses. Every call closes the stream: each entity with a fix
        # since its last ``end`` point gets one, so this stage runs, and is
        # observed, on every call, and emits nothing on an idle one.
        span = trace.start("synopses")
        points = self.synopses.process_many(clean, columns)
        points += self.synopses.flush()
        synopses = [Record(cp.fix.t, cp, cp.fix.entity_id, stamp) for cp in points]
        trace.done(span, len(clean), len(points))
        links: list[Record] = []
        if points:
            # Weather enrichment, then region and port links: one batch
            # call each over the points' coordinates.
            span = trace.start("link_discovery")
            point_fixes = [cp.fix for cp in points]
            lons, lats, ts = np.array([(fix.lon, fix.lat, fix.t) for fix in point_fixes], dtype=np.float64).T
            for cp, u, v, wave in zip(points, *self.weather.wind_wave_batch(lons, lats, ts)):
                cp.detail["weather"] = {"wind_u_ms": u, "wind_v_ms": v, "wave_m": wave}
            region_links, _ = self.region_links.links_many(point_fixes, lons, lats)
            port_links, _ = self.port_links.links_many(point_fixes, lons, lats)
            links = [
                Record(link.t, link, link.source_id, stamp)
                for region, port in zip(region_links, port_links)
                for link in region + port
            ]
            trace.done(span, len(points), len(links))
        return _Poll(raw, rows, clean_records, synopses, links, quality)

    def _commit(
        self, poll: _Poll, trace: _Trace, proximity: Sequence[Record] = (), detections: Sequence[Record] = ()
    ) -> None:
        """Make a computed poll visible, as the ``publish`` region: count its
        raw records and cleaning verdicts, then publish it and keep it as
        ``_committed``. ``proximity`` links are published behind the poll's
        region and port links, ``detections`` to the events topic."""
        span = trace.start("publish")
        self.metrics.counter("stage.raw.records").inc(len(poll.raw))
        for flag, count in poll.quality.flagged.items():
            self.metrics.counter(f"op.clean.flagged.{flag}").inc(count)
        topics = {
            TOPIC_RAW: poll.raw,
            TOPIC_CLEAN: poll.clean,
            TOPIC_SYNOPSES: poll.synopses,
            TOPIC_LINKS: [*poll.links, *proximity],
            TOPIC_EVENTS: [*detections],
        }
        n = self._publish(topics)
        self._committed = poll.rows, topics
        trace.done(span, n, n)


class RealtimeLayer(EntityStages):
    """Both halves of Figure 2 in one loop: every run the entity stages
    compute is shown to the global stages before it is published."""

    _PROBED = (*EntityStages._PROBED, "publish", *GlobalStages.REGIONS)

    def __init__(self, config: SystemConfig | None = None, cep_training_symbols: list[str] | None = None):
        super().__init__(config)
        self.globals = GlobalStages(self.config, self.metrics, self.events, cep_training_symbols)
        self.proximity, self.cep = self.globals.proximity, self.globals.cep
        self.dashboard, self.health = self.globals.dashboard, self.globals.health

    def _commit(self, poll: _Poll, trace: _Trace) -> None:
        super()._commit(poll, trace, *self.globals.see(trace, poll.clean, poll.synopses))
        self.globals.evaluate(trace)

    def system_metrics(self) -> dict[str, Any]:
        """The one :meth:`GlobalStages.system_metrics` view."""
        return self.globals.system_metrics()
