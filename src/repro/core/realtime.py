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

from dataclasses import dataclass, field, fields
from time import perf_counter, time as wall_clock
from typing import Any, Iterable

import numpy as np

from ..cep import (
    SimpleEvent,
    TURN_ALPHABET,
    WayebEngine,
    north_to_south_reversal,
    turn_event_stream,
)
from ..datasources import generate_ports, generate_regions
from ..datasources.weather import WeatherField
from ..geo import FixColumns, PositionFix
from ..insitu import AreaEventDetector, QualityReport, RegionIndex, clean_batch
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
from ..streams import Broker, Record
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


@dataclass
class RealtimeReport:
    """Counters of one real-time run."""

    raw_fixes: int = 0
    clean_fixes: int = 0
    critical_points: int = 0
    area_events: int = 0
    links: int = 0
    proximity_links: int = 0
    cep_detections: int = 0
    cep_forecasts: int = 0
    quality: QualityReport = field(default_factory=QualityReport)

    def __add__(self, other: "RealtimeReport") -> "RealtimeReport":
        return RealtimeReport(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))

    @property
    def compression_ratio(self) -> float:
        if self.clean_fixes == 0:
            return 0.0
        return 1.0 - self.critical_points / self.clean_fixes


class Figure2Plane:
    """What every holder of the Figure-2 topics starts from: its config, an
    obs plane of its own, the five topics on an instrumented and watched
    broker, and a ``with`` lifetime."""

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
    run's clean fixes to :meth:`clean_fixes` and critical points to
    :meth:`critical_points`, and closes the run with :meth:`recognise`.
    What they find is counted into ``totals`` (``links``,
    ``proximity_links``, ``cep_detections``, ``cep_forecasts``).
    """

    def __init__(
        self,
        cfg: SystemConfig,
        metrics: MetricsRegistry,
        events: EventLog,
        totals: RealtimeReport,
        cep_training_symbols: list[str] | None = None,
    ):
        self.metrics = metrics
        self.events = events
        self.totals = totals
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
        self._probes = {name: OperatorProbe(metrics, name) for name in ("proximity", "cep")}
        # Ingest wall stamp (record provenance) to enriched output: the
        # paper's headline latency, measured by whoever owns the full chain.
        self._e2e_latency = metrics.histogram("e2e.record_latency_s")
        self._turns: list[SimpleEvent] = []

    def clean_fixes(self, clean: list[Record]) -> None:
        """Show one run's clean fixes (its clean-topic records, in stream
        order) to the dashboard."""
        self.dashboard.ingest_fixes([record.value for record in clean])

    def critical_points(self, synopses: list[Record]) -> list[list[Record]]:
        """Show one run's critical points (its synopses records, in stream
        order) to every global stage, a stage at a time; the proximity
        links each point closes come back as records for the links topic."""
        if not synopses:
            return []
        points = [record.value for record in synopses]
        for cp in points:
            self.dashboard.ingest_critical_point(cp)
        t0 = perf_counter()
        found = self.proximity.process_many([cp.fix for cp in points])
        n_links = sum(map(len, found))
        self._probes["proximity"].observe(n_links, perf_counter() - t0, n_in=len(points))
        self.totals.links += n_links
        self.totals.proximity_links += n_links
        if self.cep is not None:
            self._turns.extend(turn_event_stream(points))
        # Enriched now, all of them. Flush-tail points of a run that
        # ingested nothing carry no stamp.
        enriched = wall_clock()
        for record in synopses:
            if record.ingest_wall_s is not None:
                self._e2e_latency.observe(enriched - record.ingest_wall_s)
        return [
            [Record(link.t, link, link.source_id, record.ingest_wall_s) for link in links]
            for record, links in zip(synopses, found)
        ]

    def recognise(self) -> list[Record]:
        """Complex event recognition & forecasting over the turn events
        seen since the last call; the detections come back as records for
        the events topic."""
        turns, self._turns = self._turns, []
        if not turns:
            return []
        t0 = perf_counter()
        run = self.cep.run(turns)
        self._probes["cep"].observe(
            len(run.detections) + len(run.forecasts), perf_counter() - t0, n_in=len(turns)
        )
        self.totals.cep_detections += len(run.detections)
        self.totals.cep_forecasts += len(run.forecasts)
        for det in run.detections:
            self.dashboard.ingest_alert(det.t, "NorthToSouthReversal")
            self.events.emit(
                "warn", "cep", "detection", "NorthToSouthReversal",
                t=det.t, position=det.position,
            )
        return [Record(det.t, det) for det in run.detections]

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
    or counted: the four topics' records, the run's cleaning verdicts and
    area-event count, and one finished span per stage that had work."""

    raw: list[Record]
    clean: list[Record]
    synopses: list[Record]
    #: Region then port links of each critical point, in point order.
    links: list[list[Record]]
    quality: QualityReport
    area_events: int
    stages: list[Span]


class EntityStages(Figure2Plane):
    """The per-entity half of Figure 2, with its own obs plane and broker.

    Every stage here keeps state per ``entity_id`` only, so this class is
    also exactly what one shard of the sharded layer runs. A poll crosses
    the stages one stage at a time — every fix through cleaning, then
    every clean fix through area events, and so on — and each stage is
    timed, traced and observed once per run, not once per fix.
    """

    def __init__(self, config: SystemConfig | None = None):
        super().__init__(config)
        cfg = self.config
        # Per-stage probes: the Figure-2 hops report under the same
        # ``op.<name>.*`` namespace as instrumented stream operators.
        self._probes = {
            name: OperatorProbe(self.metrics, name)
            for name in ("clean", "area_events", "synopses", "link_discovery")
        }
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
        self._wall_s = 0.0
        self.report = RealtimeReport()

    def run(self, fixes: Iterable[PositionFix], columns: FixColumns | None = None) -> RealtimeReport:
        """Push a bounded surveillance stream through the layer.

        Every stage's output for the poll is computed first and committed
        — published, counted, observed — at the end, so a run that raises
        publishes nothing and leaves every counter equal to its topic.
        ``columns``, when the caller already holds ``FixColumns.of(fixes)``
        (a pooled worker's decoded frame), are screened instead of built;
        the poll's size decides either way whether the screens run.
        """
        report = self.report
        self.events.emit("info", "realtime", "run_started")
        wall_start = perf_counter()
        with self.tracer.span("run") as root:
            self._commit(self._entity_stages(fixes, columns, root))
        self._wall_s += perf_counter() - wall_start
        self.metrics.gauge("realtime.wall_s").set(self._wall_s)
        self.events.emit(
            "info", "realtime", "run_finished",
            raw=report.raw_fixes, clean=report.clean_fixes,
            critical_points=report.critical_points,
        )
        return report

    def _entity_stages(self, fixes: Iterable[PositionFix], columns: FixColumns | None, root: Span) -> _Poll:
        """The poll through each per-entity stage as one batch."""
        tracer = self.tracer
        stages: list[Span] = []

        def done(span: Span, n_out: int) -> None:
            span.tags["n_out"] = n_out
            stages.append(tracer.finish(span))

        fixes = fixes if isinstance(fixes, list) else list(fixes)
        # Record provenance: the wall-clock instant the poll was handed
        # over, one stamp for every record derived from it (None on an
        # empty run, whose flush-tail points come from earlier polls).
        stamp = wall_clock() if fixes else None
        quality = QualityReport()
        raw: list[Record] = []
        clean: list[PositionFix] = []
        clean_records: list[Record] = []
        if fixes:
            # Ingest and online cleaning. The poll's columns are built here
            # (unless the caller has them), once, for every stage to screen
            # — or dropped if the poll is too small to pay for them; a
            # clean-topic record is the raw-topic record of a fix that passed.
            span = tracer.start_span("clean", root, n_in=len(fixes))
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
            done(span, len(clean))
        area_events = 0
        if clean:
            # Low-level area events.
            span = tracer.start_span("area_events", root, n_in=len(clean))
            area_events = len(self.area_detector.process_many(clean, columns))
            done(span, area_events)
        # Synopses. Trailing points surface when the stream closes, which
        # is every call — so this stage runs, and is observed, on every call.
        span = tracer.start_span("synopses", root, n_in=len(clean))
        points = self.synopses.process_many(clean, columns)
        points += self.synopses.flush()
        synopses = [Record(cp.fix.t, cp, cp.fix.entity_id, stamp) for cp in points]
        done(span, len(points))
        links: list[list[Record]] = []
        if points:
            # Weather enrichment, then region and port links: one batch
            # call each over the points' coordinates.
            span = tracer.start_span("link_discovery", root, n_in=len(points))
            point_fixes = [cp.fix for cp in points]
            lons, lats, ts = np.array([(fix.lon, fix.lat, fix.t) for fix in point_fixes], dtype=np.float64).T
            for cp, u, v, wave in zip(points, *self.weather.wind_wave_batch(lons, lats, ts)):
                cp.detail["weather"] = {"wind_u_ms": u, "wind_v_ms": v, "wave_m": wave}
            region_links, _ = self.region_links.links_many(point_fixes, lons, lats)
            port_links, _ = self.port_links.links_many(point_fixes, lons, lats)
            links = [
                [Record(link.t, link, link.source_id, stamp) for link in region + port]
                for region, port in zip(region_links, port_links)
            ]
            done(span, sum(map(len, links)))
        return _Poll(raw, clean_records, synopses, links, quality, area_events, stages)

    def _commit(self, poll: _Poll) -> None:
        """Make a computed poll visible. The per-entity half only publishes
        it; :class:`RealtimeLayer` shows it to the global half first."""
        self._publish(poll)

    def _publish(self, poll: _Poll, proximity: list[list[Record]] | None = None) -> None:
        """Publish one computed poll — one ``publish_many`` per topic —
        then count it and observe each stage's probe, once. ``proximity``
        is each critical point's proximity links, published right behind
        that point's region and port links."""
        report = self.report
        per_point = poll.links
        if proximity is not None:
            per_point = [links + extra for links, extra in zip(poll.links, proximity)]
        for topic, records in (
            (TOPIC_RAW, poll.raw),
            (TOPIC_CLEAN, poll.clean),
            (TOPIC_SYNOPSES, poll.synopses),
            (TOPIC_LINKS, [record for links in per_point for record in links]),
        ):
            if records:
                self.broker.publish_many(topic, records)
        report.raw_fixes += len(poll.raw)
        self.metrics.counter("stage.raw.records").inc(len(poll.raw))
        report.clean_fixes += len(poll.clean)
        report.quality += poll.quality
        report.area_events += poll.area_events
        report.critical_points += len(poll.synopses)
        report.links += sum(map(len, poll.links))
        for span in poll.stages:
            self._probes[span.name].observe(span.tags["n_out"], span.duration_s, n_in=span.tags["n_in"])


class RealtimeLayer(EntityStages):
    """Both halves of Figure 2 in one loop: every run the entity stages
    compute is shown to the global stages before it is published."""

    def __init__(self, config: SystemConfig | None = None, cep_training_symbols: list[str] | None = None):
        super().__init__(config)
        self.globals = GlobalStages(self.config, self.metrics, self.events, self.report, cep_training_symbols)
        self.proximity, self.cep = self.globals.proximity, self.globals.cep
        self.dashboard, self.health = self.globals.dashboard, self.globals.health

    def _commit(self, poll: _Poll) -> None:
        self.globals.clean_fixes(poll.clean)
        self._publish(poll, self.globals.critical_points(poll.synopses))
        detections = self.globals.recognise()
        if detections:
            self.broker.publish_many(TOPIC_EVENTS, detections)
        # After every publish, so the rules read the final topic gauges.
        self.health.evaluate()

    def system_metrics(self) -> dict[str, Any]:
        """The one :meth:`GlobalStages.system_metrics` view."""
        return self.globals.system_metrics()
