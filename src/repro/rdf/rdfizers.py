"""RDFizers: per-source instantiations of the generic RDF generation method.

One ``RDFGenerator`` pairs a record stream with a graph template. This
module provides the record adapters — each turns one source object into
the field mapping a template binds — and the templates for every datAcron
source used downstream: trajectory synopses (semantic nodes), raw AIS
fixes, regions and ports. Throughput counters support the E3 experiment
(Section 4.2.3 reports ~10,500 records/s and notes geometry-heavy sources
run slower).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

from ..datasources.ports import Port
from ..datasources.regions import Region
from ..geo import PositionFix, point_to_wkt, polygon_to_wkt
from ..geo.geometry import GeoPoint
from ..synopses import CriticalPoint

from .templates import GraphTemplate, TriplePattern, var
from .terms import Literal, Triple
from .vocabulary import A, VOC, entity_iri, node_iri


@dataclass
class GeneratorStats:
    """Throughput accounting of one RDF generator run."""

    records: int = 0
    triples: int = 0
    wall_seconds: float = 0.0

    @property
    def records_per_second(self) -> float:
        return self.records / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def triples_per_record(self) -> float:
        return self.triples / self.records if self.records else 0.0


class RDFGenerator:
    """records -> template -> triples, with throughput accounting."""

    def __init__(self, records: Iterable[Mapping[str, Any]], template: GraphTemplate, name: str = "rdfizer"):
        self.records = records
        self.template = template
        self.name = name
        self.stats = GeneratorStats()

    def triples(self) -> Iterator[Triple]:
        """Generate all triples of the record stream."""
        start = time.perf_counter()
        for record in self.records:
            produced = self.template.instantiate(record)
            self.stats.records += 1
            self.stats.triples += len(produced)
            yield from produced
        self.stats.wall_seconds += time.perf_counter() - start


# -- record adapters ----------------------------------------------------------


def fix_record(fix: PositionFix) -> dict[str, Any]:
    """A raw position fix as a template record."""
    return {
        "entity_id": fix.entity_id,
        "t": fix.t,
        "lon": fix.lon,
        "lat": fix.lat,
        "alt": fix.alt,
        "speed": fix.speed,
        "heading": fix.heading,
        "vrate": fix.vrate,
        "source": fix.source,
    }


def critical_point_record(cp: CriticalPoint) -> dict[str, Any]:
    """A synopsis node as a template record."""
    rec = fix_record(cp.fix)
    rec["kind"] = cp.kind
    return rec


def region_record(region: Region) -> dict[str, Any]:
    # The polygon is carried raw: WKT extraction happens inside the triple
    # generator (a generated variable), so the geometry-processing cost is
    # part of RDF generation — the paper notes geometry-heavy sources
    # transform markedly slower for exactly this reason.
    return {
        "region_id": region.region_id,
        "name": region.name,
        "kind": region.kind,
        "polygon": region.polygon,
    }


def port_record(port: Port) -> dict[str, Any]:
    return {
        "port_id": port.port_id,
        "name": port.name,
        "country": port.country,
        "wkt": point_to_wkt(port.location),
        "radius_m": port.radius_m,
    }


# -- templates ----------------------------------------------------------------


def semantic_node_template() -> GraphTemplate:
    """Template for trajectory synopses: the core real-time RDFizer.

    Mints node/trajectory/entity IRIs as generated variables and embeds a
    WKT literal extracted during generation — both paper-described features
    of the variable-vector mechanism.
    """
    return GraphTemplate(
        generators=[
            ("node", lambda env: node_iri(env["entity_id"], env["t"])),
            ("trajectory", lambda env: entity_iri("trajectory", env["entity_id"])),
            ("mover", lambda env: entity_iri("object", env["entity_id"])),
            ("wkt", lambda env: Literal.wkt(point_to_wkt(GeoPoint(env["lon"], env["lat"])))),
        ],
        patterns=[
            TriplePattern(var("node"), A, VOC.SemanticNode),
            TriplePattern(var("node"), VOC.eventType, var("kind")),
            TriplePattern(var("node"), VOC.timestamp, var("t")),
            TriplePattern(var("node"), VOC.asWKT, var("wkt")),
            TriplePattern(var("node"), VOC.speed, var("speed"), optional=True),
            TriplePattern(var("node"), VOC.heading, var("heading"), optional=True),
            TriplePattern(var("node"), VOC.altitude, var("alt"), optional=True),
            TriplePattern(var("trajectory"), A, VOC.Trajectory),
            TriplePattern(var("trajectory"), VOC.hasSemanticNode, var("node")),
            TriplePattern(var("trajectory"), VOC.ofMovingObject, var("mover")),
        ],
    )


def raw_position_template() -> GraphTemplate:
    """Template for raw (uncompressed) surveillance positions."""
    return GraphTemplate(
        generators=[
            ("node", lambda env: node_iri(env["entity_id"], env["t"])),
            ("mover", lambda env: entity_iri("object", env["entity_id"])),
            ("wkt", lambda env: Literal.wkt(point_to_wkt(GeoPoint(env["lon"], env["lat"])))),
        ],
        patterns=[
            TriplePattern(var("node"), A, VOC.RawPosition),
            TriplePattern(var("node"), VOC.timestamp, var("t")),
            TriplePattern(var("node"), VOC.asWKT, var("wkt")),
            TriplePattern(var("node"), VOC.ofMovingObject, var("mover")),
            TriplePattern(var("node"), VOC.speed, var("speed"), optional=True),
        ],
    )


def region_template() -> GraphTemplate:
    """Template for geographical regions (geometry-heavy source)."""
    return GraphTemplate(
        generators=[
            ("region", lambda env: entity_iri("region", env["region_id"])),
            ("geom", lambda env: Literal.wkt(polygon_to_wkt(env["polygon"]))),
        ],
        patterns=[
            TriplePattern(var("region"), A, VOC.Region),
            TriplePattern(var("region"), VOC.label, var("name")),
            TriplePattern(var("region"), VOC.regionKind, var("kind")),
            TriplePattern(var("region"), VOC.asWKT, var("geom")),
        ],
    )


def port_template() -> GraphTemplate:
    return GraphTemplate(
        generators=[
            ("port", lambda env: entity_iri("port", env["port_id"])),
            ("geom", lambda env: Literal.wkt(env["wkt"])),
        ],
        patterns=[
            TriplePattern(var("port"), A, VOC.Port),
            TriplePattern(var("port"), VOC.label, var("name")),
            TriplePattern(var("port"), VOC.asWKT, var("geom")),
        ],
    )


# -- ready-made generators ------------------------------------------------------


def synopses_rdfizer(points: Iterable[CriticalPoint]) -> RDFGenerator:
    """RDF generator over a critical-point stream."""
    return RDFGenerator(map(critical_point_record, points), semantic_node_template(), name="synopses")


def raw_fix_rdfizer(fixes: Iterable[PositionFix]) -> RDFGenerator:
    return RDFGenerator(map(fix_record, fixes), raw_position_template(), name="raw_positions")


def region_rdfizer(regions: Iterable[Region]) -> RDFGenerator:
    return RDFGenerator(map(region_record, regions), region_template(), name="regions")


def port_rdfizer(ports: Iterable[Port]) -> RDFGenerator:
    return RDFGenerator(map(port_record, ports), port_template(), name="ports")
