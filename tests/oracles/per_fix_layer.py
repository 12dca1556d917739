"""The per-fix Figure-2 layer: the oracle of the stage-at-a-time hot path.

``repro.core.realtime`` moves a poll through each stage as one batch.
This module is the loop it replaced, minus observability: every fix
goes singly through the *public per-fix* stage APIs (``clean_stream``,
``AreaEventDetector.process``, ``SynopsesGenerator.process`` /
``flush``, ``links_for``, ``MovingProximityDiscoverer.process``), and
every record is published on its own, into the replica's own
two-partition topics. Both compositions of the two halves are here:

* plain (``n_shards=None``): one per-fix replica, publishing into the
  layer's own topics;
* sharded (``n_shards=N``): one per-fix replica per shard, the records
  each run published in publish order, and the canonical ``(t, key)``
  stable merge of them into the layer's topics.

Both run one global half: each poll's critical points in ``(t, key)``
order through proximity and CEP, the poll's proximity links behind its
region and port links.

Ingest stamps are not wall time here: ``0.0`` on every record, as the
layer stamps every record a poll derives (an empty poll derives none).
Counts are tallied here, independently of any registry, and handed over
as a :class:`RealtimeReport` whose ``quality.flagged`` lists the issues
in ``ALL_ISSUES`` order, as the layer's report does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

from repro.cep import TURN_ALPHABET, WayebEngine, north_to_south_reversal, turn_event_stream
from repro.core import ALL_TOPICS, TOPIC_CLEAN, TOPIC_EVENTS, TOPIC_LINKS, TOPIC_RAW, TOPIC_SYNOPSES, SystemConfig
from repro.core.realtime import RealtimeReport
from repro.datasources import generate_ports, generate_regions
from repro.datasources.weather import WeatherField
from repro.insitu import ALL_ISSUES, AreaEventDetector, QualityReport, RegionIndex, clean_stream
from repro.linkdiscovery import MovingProximityDiscoverer, PortLinkDiscoverer, RegionLinkDiscoverer
from repro.streams import Broker, Record, merge_shard_outputs, shard_index
from repro.synopses import SynopsesGenerator


class PerFixEntityStages:
    """The per-entity half, one fix at a time."""

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        regions = generate_regions(cfg.n_regions, bbox=cfg.bbox, seed=cfg.seed)
        ports = generate_ports(cfg.n_ports, bbox=cfg.bbox, seed=cfg.seed + 1)
        self.synopses = SynopsesGenerator(cfg.synopses)
        self.area_detector = AreaEventDetector(RegionIndex(regions, cell_deg=cfg.grid_cell_deg))
        self.region_links = RegionLinkDiscoverer(regions, cfg.bbox, cell_deg=cfg.grid_cell_deg, use_masks=True)
        self.port_links = PortLinkDiscoverer(
            ports, cfg.bbox, threshold_m=cfg.near_port_threshold_m, cell_deg=cfg.grid_cell_deg
        )
        self.weather = WeatherField(bbox=cfg.bbox, seed=cfg.seed + 2)
        #: RealtimeReport field -> tally, and the cleaner's own report.
        self.counts: Counter = Counter()
        self.quality = QualityReport()
        self.broker = Broker()
        for topic in ALL_TOPICS:
            self.broker.create_topic(topic, partitions=2)
        self.published: dict[str, list[Record]] = {topic: [] for topic in ALL_TOPICS}

    def drain(self) -> dict[str, list[Record]]:
        """What each topic gained since the last drain, in publish order."""
        out, self.published = self.published, {topic: [] for topic in ALL_TOPICS}
        return out

    def run(self, fixes) -> None:
        """One poll, every record published as it appears."""
        counts, topic = self.counts, self.broker.topic

        def publish(name, record):
            topic(name).publish(record)
            self.published[name].append(record)

        stamp = 0.0

        def raw_stream():
            for fix in fixes:
                counts["raw_fixes"] += 1
                publish(TOPIC_RAW, Record(fix.t, fix, fix.entity_id, stamp))
                yield fix

        def critical_point(cp):
            counts["critical_points"] += 1
            publish(TOPIC_SYNOPSES, Record(cp.t, cp, cp.entity_id, stamp))
            sample = self.weather.sample(cp.fix.lon, cp.fix.lat, cp.t)
            cp.detail["weather"] = {
                "wind_u_ms": sample.wind_u_ms, "wind_v_ms": sample.wind_v_ms, "wave_m": sample.wave_height_m,
            }
            links = self.region_links.links_for(cp.fix)[0] + self.port_links.links_for(cp.fix)[0]
            counts["links"] += len(links)
            for link in links:
                publish(TOPIC_LINKS, Record(link.t, link, link.source_id, stamp))

        for fix in clean_stream(raw_stream(), config=self.cfg.quality, report=self.quality):
            counts["clean_fixes"] += 1
            publish(TOPIC_CLEAN, Record(fix.t, fix, fix.entity_id, stamp))
            counts["area_events"] += len(self.area_detector.process(fix))
            for cp in self.synopses.process(fix):
                critical_point(cp)
        for cp in self.synopses.flush():
            critical_point(cp)


class PerFixLayer:
    """Both halves, per fix: plain when ``n_shards`` is None, else the
    sharded composition over that many per-fix replicas."""

    def __init__(self, cfg: SystemConfig, n_shards: int | None = None, cep_training_symbols=None):
        self.replicas = [PerFixEntityStages(cfg) for _ in range(n_shards or 1)]
        self.sharded = n_shards is not None
        self.proximity = MovingProximityDiscoverer(
            cfg.bbox, cfg.proximity_space_m, cfg.proximity_time_s, cell_deg=cfg.grid_cell_deg
        )
        self.cep = None
        if cep_training_symbols:
            self.cep = WayebEngine(north_to_south_reversal(), TURN_ALPHABET, order=1, threshold=0.5, horizon=60)
            self.cep.train(cep_training_symbols)
        #: The global stages' tallies.
        self.totals: Counter = Counter()
        if self.sharded:
            self.broker = Broker()
            for topic in ALL_TOPICS:
                self.broker.create_topic(topic, partitions=2)
        else:
            self.broker = self.replicas[0].broker

    @property
    def report(self) -> RealtimeReport:
        counts, flagged = Counter(self.totals), Counter()
        for replica in self.replicas:
            counts.update(replica.counts)
            flagged.update(replica.quality.flagged)
        quality = QualityReport(
            sum(replica.quality.seen for replica in self.replicas),
            sum(replica.quality.passed for replica in self.replicas),
            {issue: flagged[issue] for issue in ALL_ISSUES if flagged[issue]},
        )
        tallies = {f.name: counts[f.name] for f in fields(RealtimeReport) if f.name != "quality"}
        return RealtimeReport(**tallies, quality=quality)

    def run(self, fixes) -> RealtimeReport:
        routed = [[] for _ in self.replicas]
        for fix in fixes:
            routed[shard_index(fix.entity_id, len(routed))].append(fix)
        for replica, sub_stream in zip(self.replicas, routed):
            replica.run(sub_stream)
        drained = [replica.drain() for replica in self.replicas]
        if self.sharded:
            for topic in ALL_TOPICS:
                for record in merge_shard_outputs([d[topic] for d in drained]):
                    self.broker.topic(topic).publish(record)
        # The global half, one for both compositions.
        synopses = merge_shard_outputs([d[TOPIC_SYNOPSES] for d in drained])
        for record in synopses:
            for link in self.proximity.process(record.value.fix):
                self.totals["links"] += 1
                self.totals["proximity_links"] += 1
                self.broker.topic(TOPIC_LINKS).publish(Record(link.t, link, link.source_id, record.ingest_wall_s))
        turns = list(turn_event_stream([record.value for record in synopses]))
        if self.cep is not None and turns:
            found = self.cep.run(turns)
            self.totals["cep_detections"] += len(found.detections)
            self.totals["cep_forecasts"] += len(found.forecasts)
            for det in found.detections:
                self.broker.topic(TOPIC_EVENTS).publish(Record(det.t, det))
        return self.report
