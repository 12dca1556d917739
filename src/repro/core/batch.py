"""The batch layer of the datAcron architecture (Figure 2).

Consumes what the real-time layer persisted to the broker (its own
consumer group — the same data, independently readable), lifts the
trajectory synopses to RDF with the datAcron ontology templates, stores
them in the distributed-store surrogate, and exposes spatio-temporal
star-query analytics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geo import BBox
from ..kgstore import KGStore, STConstraint, star
from ..obs import MetricsRegistry, OperatorProbe, Tracer, instrument_consumer
from ..rdf import A, Graph, VOC, var
from ..rdf.rdfizers import synopses_rdfizer
from ..streams import Broker
from ..synopses import CriticalPoint

from .config import SystemConfig, TOPIC_SYNOPSES
from .realtime import _traced


@dataclass(frozen=True)
class BatchReport:
    """What the batch layer has ingested so far.

    Store-wide totals, cumulative across ingests: ``synopsis_points`` is
    the ``batch.synopsis_points`` counter, ``triples`` is ``len(store)``
    and ``anchored_subjects`` the store's anchored-subject count
    (per-load counts are the store's :class:`LoadReport`).
    """

    synopsis_points: int = 0
    triples: int = 0
    anchored_subjects: int = 0


class BatchLayer:
    """RDF lifting, persistent storage and star-query analytics.

    Instrumented on ``registry``, or on a registry of its own when none
    is given. The tracer is the ingest's only clock: each
    :meth:`ingest_from_broker` is one ``ingest`` root span whose
    children are its regions, each with an ``op.<name>.*`` probe, and
    ``batch.wall_s`` is the sum of the roots: the ``ingest`` root of the
    registry's attribution table (``MetricsRegistry.roots``).
    """

    _PROBED = ("drain", "rdfize", "dedup", "load")

    def __init__(
        self,
        config: SystemConfig,
        broker: Broker,
        t_origin: float,
        t_extent_s: float,
        registry: MetricsRegistry | None = None,
    ):
        self.config = config
        self.broker = broker
        # Persistent consumer-group readers: repeated ingests continue from
        # the committed offsets, and their lag is observable as gauges.
        self._synopses_consumer = broker.consumer(TOPIC_SYNOPSES, group="batch")
        self.registry = registry = registry or MetricsRegistry()
        self.tracer = Tracer()
        instrument_consumer(self._synopses_consumer, registry)
        self._synopsis_points = registry.counter("batch.synopsis_points")
        self._probes = {name: OperatorProbe(registry, name) for name in self._PROBED}
        self._wall = registry.gauge("batch.wall_s")
        registry.roots["ingest"] = ("batch.wall_s", self._PROBED)
        self.store = KGStore(
            config.bbox,
            t_origin=t_origin,
            t_extent_s=t_extent_s,
            layout="property_table",
            grid_cols=32,
            grid_rows=32,
            t_slots=32,
            registry=registry,
        )
        self.graph = Graph()

    @property
    def report(self) -> BatchReport:
        """What has been ingested so far, read from the counter and the store."""
        store = self.store
        return BatchReport(self._synopsis_points.value, len(store), store.anchored_subjects)

    def ingest_from_broker(self) -> BatchReport:
        """Drain the synopses topic (batch consumer group) into the KG store.

        The regions run one after another: ``drain`` the topic, ``rdfize``
        the points, ``dedup`` the triples against the graph, ``load`` the
        new ones. With nothing to drain, only ``drain`` runs.
        """
        consumer = self._synopses_consumer
        points: list[CriticalPoint] = []
        with _traced(self.tracer, "ingest", self._probes, self._wall) as trace:
            span = trace.start("drain")
            while records := consumer.poll(max_messages=10_000):
                points.extend(r.value for r in records)
            trace.done(span, len(points), len(points))
            if points:
                # Only the triples new to the graph go to the store, in
                # rdfizer order: each load appends its delta to the batch view.
                span = trace.start("rdfize")
                produced = synopses_rdfizer(points).triples()
                trace.done(span, len(points), len(produced))
                span = trace.start("dedup")
                add = self.graph.add
                triples = [t for t in produced if add(t)]
                trace.done(span, len(produced), len(triples))
                del produced  # the duplicates are freed before the load, not after it
                span = trace.start("load")
                self.store.load(triples)
                trace.done(span, len(triples), len(triples))
        self._synopsis_points.inc(len(points))
        self.registry.counter("batch.ingests").inc()
        return self.report

    def nodes_in_range(self, bbox: BBox, t_min: float, t_max: float) -> list[dict]:
        """Star-query: semantic nodes (with time/kind) inside a space-time range."""
        if not len(self.store):   # nothing ingested yet: no node is in any range
            return []
        query = star(
            "node",
            (A, VOC.SemanticNode),
            (VOC.timestamp, var("t")),
            (VOC.eventType, var("kind")),
            st=STConstraint(bbox, t_min, t_max),
        )
        bindings, _ = self.store.execute(query)
        return bindings

    def event_type_counts(self) -> dict[str, int]:
        """Offline analytics: critical-point counts by type, from the graph."""
        counts: dict[str, int] = {}
        for triple in self.graph.match(None, VOC.eventType, None):
            kind = triple.o.value
            counts[kind] = counts.get(kind, 0) + 1
        return counts


