"""The real-time layer of the datAcron architecture (Figure 2).

Wires the streaming components exactly as the paper's real-time layer:

    raw surveillance -> online cleaning -> in-situ statistics
        -> synopses generation (critical points)
        -> spatio-temporal link discovery (within / nearTo / proximity)
        -> complex event recognition & forecasting
        -> real-time dashboard

All hops go through broker topics, so each stage can also be consumed
independently (the dashboard and the batch layer read the same topics
through their own consumer groups).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    Link,
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

    @property
    def compression_ratio(self) -> float:
        if self.clean_fixes == 0:
            return 0.0
        return 1.0 - self.critical_points / self.clean_fixes


class RealtimeLayer:
    """The wired streaming pipeline."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        cep_training_symbols: list[str] | None = None,
        enable_proximity: bool = True,
    ):
        self.config = config or SystemConfig()
        cfg = self.config
        self.metrics = MetricsRegistry(seed=cfg.seed)
        self.tracer = Tracer()
        self.events = EventLog(capacity=cfg.event_log_capacity)
        self.broker = Broker()
        for topic in ALL_TOPICS:
            self.broker.create_topic(topic, partitions=2)
        instrument_broker(self.broker, self.metrics)
        watch_broker(self.broker, self.events)
        # Online-cleaning rejection rate: the error-rate signal the health
        # monitor's default rules watch.
        self.metrics.gauge(
            "realtime.error_rate",
            fn=lambda: (
                self.report.quality.dropped / self.report.raw_fixes
                if self.report.raw_fixes
                else 0.0
            ),
        )
        self.health = default_realtime_rules(
            HealthMonitor(self.metrics, event_log=self.events)
        )
        # Per-stage probes: the Figure-2 hops report under the same
        # ``op.<name>.*`` namespace as instrumented stream operators.
        self._probes = {
            name: OperatorProbe(self.metrics, name)
            for name in ("clean", "area_events", "synopses", "link_discovery", "cep")
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
        # Proximity is the one cross-entity stage; a sharded deployment
        # (repro.core.sharded) disables it per shard and runs it once over
        # the merged stream — entity-partitioned replicas would silently
        # miss every cross-shard pair.
        self.proximity = (
            MovingProximityDiscoverer(
                cfg.bbox, cfg.proximity_space_m, cfg.proximity_time_s, cell_deg=cfg.grid_cell_deg,
                registry=self.metrics,
            )
            if enable_proximity
            else None
        )
        self.dashboard = Dashboard(cfg.bbox, registry=self.metrics, health=self.health)
        self.weather = WeatherField(bbox=cfg.bbox, seed=cfg.seed + 2)
        self.cep: WayebEngine | None = None
        if cep_training_symbols:
            self.cep = WayebEngine(
                north_to_south_reversal(), TURN_ALPHABET, order=1, threshold=0.5, horizon=60,
                registry=self.metrics,
            )
            self.cep.train(cep_training_symbols)
        self._cep_state = None
        self._wall_s = 0.0
        self.report = RealtimeReport()

    def run(self, fixes: Iterable[PositionFix]) -> RealtimeReport:
        """Push a bounded surveillance stream through the whole layer."""
        report = self.report
        probes = self._probes
        tracer = self.tracer
        trace_every = self.config.trace_sample_every
        fix_latency = self.metrics.histogram("realtime.fix_latency_s")
        # End-to-end record latency — ingest wall time to enriched output —
        # is measured by whoever owns the full Figure-2 chain. A shard
        # replica (enable_proximity=False) only stamps provenance; the
        # sharded deployment measures e2e once, at the merged-stream
        # consumer, so the metric means the same thing on both paths.
        e2e_latency = (
            self.metrics.histogram("e2e.record_latency_s")
            if self.proximity is not None
            else None
        )
        cep_events: list[SimpleEvent] = []
        # Publish per batch, not per fix: each Figure-2 hop buffers into a
        # TopicBatcher that flushes through the broker's publish_many fast
        # path (identical topic contents/offsets/stats to per-fix publishes).
        raw_topic = TopicBatcher(self.broker.topic(TOPIC_RAW), PUBLISH_BATCH_SIZE)
        clean_topic = TopicBatcher(self.broker.topic(TOPIC_CLEAN), PUBLISH_BATCH_SIZE)
        syn_topic = TopicBatcher(self.broker.topic(TOPIC_SYNOPSES), PUBLISH_BATCH_SIZE)
        link_topic = TopicBatcher(self.broker.topic(TOPIC_LINKS), PUBLISH_BATCH_SIZE)
        raw_counter = self.metrics.counter("stage.raw.records")
        self.events.emit("info", "realtime", "run_started")

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

        wall_start = perf_counter()
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
            self.dashboard.ingest_fix(fix)
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
                report.critical_points += 1
                syn_topic.add(Record(cp.t, cp, key=cp.entity_id, ingest_wall_s=fix_ingest))
                self.dashboard.ingest_critical_point(cp)
                self._enrich(cp, link_topic, report, parent_span=span, ingest_wall_s=fix_ingest)
                cep_events.extend(turn_event_stream([cp]))
                if e2e_latency is not None:
                    e2e_latency.observe(wall_clock() - fix_ingest)
            fix_latency.observe(perf_counter() - fix_start)
            if span:
                tracer.finish(span)
        # Trailing synopsis points surface when the stream closes; their
        # provenance is the last ingested fix's stamp (None on an empty run).
        tail_ingest = ingest_wall[0] or None
        for cp in self.synopses.flush():
            report.critical_points += 1
            syn_topic.add(Record(cp.t, cp, key=cp.entity_id, ingest_wall_s=tail_ingest))
            self._enrich(cp, link_topic, report, ingest_wall_s=tail_ingest)
            cep_events.extend(turn_event_stream([cp]))
            if e2e_latency is not None and tail_ingest is not None:
                e2e_latency.observe(wall_clock() - tail_ingest)
        # Complex event recognition & forecasting over the synopsis stream.
        if self.cep is not None and cep_events:
            t0 = perf_counter()
            run = self.cep.run(cep_events)
            report.cep_detections += len(run.detections)
            report.cep_forecasts += len(run.forecasts)
            probes["cep"].observe(
                len(run.detections) + len(run.forecasts), perf_counter() - t0, n_in=len(cep_events)
            )
            events_topic = TopicBatcher(self.broker.topic(TOPIC_EVENTS), PUBLISH_BATCH_SIZE)
            for det in run.detections:
                events_topic.add(Record(det.t, det))
                self.dashboard.ingest_alert(det.t, "NorthToSouthReversal")
                self.events.emit(
                    "warn", "cep", "detection", "NorthToSouthReversal",
                    t=det.t, position=det.position,
                )
            events_topic.flush()
        # Flush every hop's remaining buffered publishes before the run's
        # wall clock stops and the health rules read the topic gauges.
        for batcher in (raw_topic, clean_topic, syn_topic, link_topic):
            batcher.flush()
        self._wall_s += perf_counter() - wall_start
        self.metrics.gauge("realtime.wall_s").set(self._wall_s)
        self.health.evaluate()
        self.events.emit(
            "info", "realtime", "run_finished",
            raw=report.raw_fixes, clean=report.clean_fixes,
            critical_points=report.critical_points,
        )
        return report

    def system_metrics(self) -> dict[str, Any]:
        """The observability view of this layer: registry snapshot plus
        the derived per-operator rates, consumer lags, health states and
        recent structured events the dashboard shows."""
        self.health.evaluate()
        snap = self.metrics.snapshot()
        snap["operators"] = operator_rates(self.metrics)
        snap["consumer_lag"] = consumer_lags(self.metrics)
        snap["health"] = self.health.snapshot()
        snap["events"] = self.events.snapshot()
        return snap

    def _enrich(
        self,
        cp: CriticalPoint,
        link_topic: TopicBatcher,
        report: RealtimeReport,
        parent_span=None,
        ingest_wall_s: float | None = None,
    ) -> None:
        """Run link discovery and weather enrichment for one critical point."""
        sample = self.weather.sample(cp.fix.lon, cp.fix.lat, cp.t)
        cp.detail["weather"] = {
            "wind_u_ms": sample.wind_u_ms,
            "wind_v_ms": sample.wind_v_ms,
            "wave_m": sample.wave_height_m,
        }
        child = self.tracer.start_span("link_discovery", parent_span) if parent_span else None
        t0 = perf_counter()
        links: list[Link] = []
        found, _ = self.region_links.links_for(cp.fix)
        links.extend(found)
        found, _ = self.port_links.links_for(cp.fix)
        links.extend(found)
        if self.proximity is not None:
            prox = self.proximity.process(cp.fix)
            report.proximity_links += len(prox)
            links.extend(prox)
        self._probes["link_discovery"].observe(len(links), perf_counter() - t0)
        if child:
            self.tracer.finish(child)
        report.links += len(links)
        for link in links:
            link_topic.add(Record(link.t, link, key=link.source_id, ingest_wall_s=ingest_wall_s))
