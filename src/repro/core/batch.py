"""The batch layer of the datAcron architecture (Figure 2).

Consumes what the real-time layer persisted to the broker (its own
consumer group — the same data, independently readable), lifts the
trajectory synopses to RDF with the datAcron ontology templates, stores
them in the distributed-store surrogate, and exposes spatio-temporal
star-query analytics.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from ..geo import BBox
from ..kgstore import KGStore, STConstraint, star
from ..obs import MetricsRegistry, instrument_consumer
from ..rdf import A, Graph, VOC, var
from ..rdf.rdfizers import synopses_rdfizer
from ..streams import Broker
from ..synopses import CriticalPoint

from .config import SystemConfig, TOPIC_SYNOPSES


@dataclass
class BatchReport:
    """What the batch layer has ingested so far.

    Store-wide totals, cumulative across ingests: ``triples`` is
    ``len(store)`` and ``anchored_subjects`` the store's anchored-subject
    count (per-load counts are the store's :class:`LoadReport`).
    """

    synopsis_points: int = 0
    triples: int = 0
    anchored_subjects: int = 0


class BatchLayer:
    """RDF lifting, persistent storage and star-query analytics."""

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
        self.registry = registry
        if registry is not None:
            instrument_consumer(self._synopses_consumer, registry)
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
        self.report = BatchReport()

    def _time(self, name: str):
        """``registry.time(name)`` when instrumented, else a no-op block."""
        return self.registry.time(name) if self.registry is not None else nullcontext()

    def ingest_from_broker(self) -> BatchReport:
        """Drain the synopses topic (batch consumer group) into the KG store."""
        consumer = self._synopses_consumer
        points: list[CriticalPoint] = []
        with self._time("batch.ingest_latency_s"):
            while True:
                records = consumer.poll(max_messages=10_000)
                if not records:
                    break
                points.extend(r.value for r in records)
            self.report.synopsis_points += len(points)
            if points:
                # Only the triples new to the graph go to the store, in
                # rdfizer order: each load appends its delta to the batch view.
                with self._time("batch.rdfize_latency_s"):
                    add = self.graph.add
                    triples = [t for t in synopses_rdfizer(points).triples() if add(t)]
                self.store.load(triples)
                self.report.triples = len(self.store)
                self.report.anchored_subjects = self.store.anchored_subjects
        if self.registry is not None:
            self.registry.counter("batch.synopsis_points").inc(len(points))
            self.registry.counter("batch.ingests").inc()
        return self.report

    def nodes_in_range(self, bbox: BBox, t_min: float, t_max: float) -> list[dict]:
        """Star-query: semantic nodes (with time/kind) inside a space-time range."""
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


