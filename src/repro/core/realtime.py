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

from ..cep import (
    SimpleEvent,
    TURN_ALPHABET,
    WayebEngine,
    north_to_south_reversal,
    turn_event_stream,
)
from ..datasources import generate_ports, generate_regions
from ..datasources.weather import WeatherField
from ..geo import PositionFix
from ..insitu import AreaEventDetector, QualityReport, RegionIndex, clean_stream
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
    Tracer,
    consumer_lags,
    default_realtime_rules,
    instrument_broker,
    operator_rates,
    watch_broker,
)
from ..streams import Broker, Record, TopicBatcher
from ..synopses import CriticalPoint, SynopsesGenerator
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


#: Broker publishes coalesce into batches of this size (the columnar fast
#: path through the Figure-2 loop).
PUBLISH_BATCH_SIZE = 256


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
        self.metrics = MetricsRegistry(seed=self.config.seed)
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
    clean fix to :attr:`dashboard` and every critical point to
    :meth:`critical_point`, and closes each run with :meth:`recognise`.
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
        raw, clean = metrics.counter("stage.raw.records"), metrics.counter("op.clean.records_in")
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

    def critical_point(self, cp: CriticalPoint, ingest_wall_s: float | None) -> list[Record]:
        """Show one critical point to every global stage; the proximity
        links it closes come back as records for the links topic."""
        self.dashboard.ingest_critical_point(cp)
        t0 = perf_counter()
        links = self.proximity.process(cp.fix)
        self._probes["proximity"].observe(len(links), perf_counter() - t0)
        self.totals.links += len(links)
        self.totals.proximity_links += len(links)
        if self.cep is not None:
            self._turns.extend(turn_event_stream([cp]))
        # Flush-tail points of a run that ingested nothing carry no stamp.
        if ingest_wall_s is not None:
            self._e2e_latency.observe(wall_clock() - ingest_wall_s)
        return [Record(link.t, link, key=link.source_id, ingest_wall_s=ingest_wall_s) for link in links]

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


class EntityStages(Figure2Plane):
    """The per-entity half of Figure 2, with its own obs plane and broker.

    Every stage here keeps state per ``entity_id`` only, so this class is
    also exactly what one shard of the sharded layer runs.
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

    def run(self, fixes: Iterable[PositionFix]) -> RealtimeReport:
        """Push a bounded surveillance stream through the layer."""
        report = self.report
        self.events.emit("info", "realtime", "run_started")
        wall_start = perf_counter()
        self._stages(fixes)
        self._wall_s += perf_counter() - wall_start
        self.metrics.gauge("realtime.wall_s").set(self._wall_s)
        self.events.emit(
            "info", "realtime", "run_finished",
            raw=report.raw_fixes, clean=report.clean_fixes,
            critical_points=report.critical_points,
        )
        return report

    def _stages(self, fixes: Iterable[PositionFix]) -> None:
        report = self.report
        probes = self._probes
        tracer = self.tracer
        trace_every = self.config.trace_sample_every
        fix_latency = self.metrics.histogram("realtime.fix_latency_s")
        # Publish per batch, not per fix: each Figure-2 hop buffers into a
        # TopicBatcher that flushes through the broker's publish_many fast
        # path (identical topic contents/offsets/stats to per-fix publishes).
        raw_topic = TopicBatcher(self.broker.topic(TOPIC_RAW), PUBLISH_BATCH_SIZE)
        clean_topic = TopicBatcher(self.broker.topic(TOPIC_CLEAN), PUBLISH_BATCH_SIZE)
        syn_topic = TopicBatcher(self.broker.topic(TOPIC_SYNOPSES), PUBLISH_BATCH_SIZE)
        link_topic = TopicBatcher(self.broker.topic(TOPIC_LINKS), PUBLISH_BATCH_SIZE)
        raw_counter = self.metrics.counter("stage.raw.records")

        # The wall-clock instant the *current* fix entered the system.
        # clean_stream is a 1:1 in-order drop-or-yield filter, so when it
        # yields, the last stamp written here belongs to that very fix.
        ingest_wall = [0.0]

        def raw_stream():
            for fix in fixes:
                report.raw_fixes += 1
                raw_counter.inc()
                stamp = wall_clock()
                ingest_wall[0] = stamp
                raw_topic.add(Record(fix.t, fix, key=fix.entity_id, ingest_wall_s=stamp))
                yield fix

        clean_it = iter(clean_stream(raw_stream(), config=self.config.quality, report=report.quality))
        while True:
            fix_start = perf_counter()
            try:
                fix = next(clean_it)
            except StopIteration:
                break
            fix_ingest = ingest_wall[0]
            # Ingest + online cleaning latency is the time to surface this fix.
            probes["clean"].observe(1, perf_counter() - fix_start)
            span = None
            if trace_every and report.clean_fixes % trace_every == 0:
                span = tracer.start_trace("record", entity_id=fix.entity_id, t=fix.t)
            report.clean_fixes += 1
            clean_topic.add(Record(fix.t, fix, key=fix.entity_id, ingest_wall_s=fix_ingest))
            self._clean_fix(fix)
            # Low-level area events.
            child = tracer.start_span("area_events", span) if span else None
            t0 = perf_counter()
            area_events = self.area_detector.process(fix)
            probes["area_events"].observe(len(area_events), perf_counter() - t0)
            if child:
                tracer.finish(child)
            report.area_events += len(area_events)
            # Synopses.
            child = tracer.start_span("synopses", span) if span else None
            t0 = perf_counter()
            points = self.synopses.process(fix)
            probes["synopses"].observe(len(points), perf_counter() - t0)
            if child:
                tracer.finish(child)
            for cp in points:
                self._critical_point(cp, syn_topic, link_topic, fix_ingest, span)
            fix_latency.observe(perf_counter() - fix_start)
            if span:
                tracer.finish(span)
        # Trailing synopsis points surface when the stream closes; their
        # provenance is the last ingested fix's stamp (None on an empty run).
        tail_ingest = ingest_wall[0] or None
        for cp in self.synopses.flush():
            self._critical_point(cp, syn_topic, link_topic, tail_ingest)
        # Flush every hop's remaining buffered publishes before the run's
        # wall clock stops.
        for batcher in (raw_topic, clean_topic, syn_topic, link_topic):
            batcher.flush()

    def _clean_fix(self, fix: PositionFix) -> None:
        """A fix passed cleaning and is published: no per-entity stage
        wants it before area events and synopses do."""

    def _critical_point(
        self,
        cp: CriticalPoint,
        syn_topic: TopicBatcher,
        link_topic: TopicBatcher,
        ingest_wall_s: float | None,
        parent_span=None,
    ) -> None:
        """Publish one critical point, weather-enriched, and its region
        and port links."""
        self.report.critical_points += 1
        syn_topic.add(Record(cp.t, cp, key=cp.entity_id, ingest_wall_s=ingest_wall_s))
        sample = self.weather.sample(cp.fix.lon, cp.fix.lat, cp.t)
        cp.detail["weather"] = {
            "wind_u_ms": sample.wind_u_ms,
            "wind_v_ms": sample.wind_v_ms,
            "wave_m": sample.wave_height_m,
        }
        child = self.tracer.start_span("link_discovery", parent_span) if parent_span else None
        t0 = perf_counter()
        links = self.region_links.links_for(cp.fix)[0] + self.port_links.links_for(cp.fix)[0]
        self._probes["link_discovery"].observe(len(links), perf_counter() - t0)
        if child:
            self.tracer.finish(child)
        self.report.links += len(links)
        for link in links:
            link_topic.add(Record(link.t, link, key=link.source_id, ingest_wall_s=ingest_wall_s))


class RealtimeLayer(EntityStages):
    """Both halves of Figure 2 in one loop: every record the entity stages
    surface is fed to the global stages as it appears."""

    def __init__(self, config: SystemConfig | None = None, cep_training_symbols: list[str] | None = None):
        super().__init__(config)
        self.globals = GlobalStages(self.config, self.metrics, self.events, self.report, cep_training_symbols)
        self.proximity, self.cep = self.globals.proximity, self.globals.cep
        self.dashboard, self.health = self.globals.dashboard, self.globals.health

    def _stages(self, fixes: Iterable[PositionFix]) -> None:
        super()._stages(fixes)
        detections = self.globals.recognise()
        if detections:
            self.broker.publish_many(TOPIC_EVENTS, detections)
        # After every publish, so the rules read the final topic gauges.
        self.health.evaluate()

    def _clean_fix(self, fix: PositionFix) -> None:
        self.dashboard.ingest_fix(fix)

    def _critical_point(self, cp, syn_topic, link_topic, ingest_wall_s, parent_span=None) -> None:
        super()._critical_point(cp, syn_topic, link_topic, ingest_wall_s, parent_span)
        for proximity_link in self.globals.critical_point(cp, ingest_wall_s):
            link_topic.add(proximity_link)

    def system_metrics(self) -> dict[str, Any]:
        """The one :meth:`GlobalStages.system_metrics` view."""
        return self.globals.system_metrics()
