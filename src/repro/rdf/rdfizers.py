"""RDFizers: per-source instantiations of the generic RDF generation method.

One ``RDFGenerator`` pairs a record stream with a graph template and
instantiates the stream as one batch. This module provides the record
adapters — each turns one source object into the field mapping a
template binds — and the templates for every datAcron source used
downstream: trajectory synopses (semantic nodes), raw AIS fixes, regions
and ports; their IRIs of an entity id are minted once per entity and
batch. A generator keeps no clock: E3 (Section 4.2.3 reports ~10,500
records/s and notes geometry-heavy sources run slower) times
``generator.triples()``, which is the batch layer's ``rdfize`` region.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..datasources.ports import Port
from ..datasources.regions import Region
from ..geo import PositionFix, point_to_wkt, polygon_to_wkt
from ..geo.geometry import GeoPoint
from ..synopses import CriticalPoint

from .templates import GraphTemplate, TriplePattern, var
from .terms import Literal, Triple
from .vocabulary import A, VOC, entity_iri, node_iri


class RDFGenerator:
    """records -> template -> triples."""

    def __init__(self, records: Iterable[Mapping[str, Any]], template: GraphTemplate):
        self.records = records
        self.template = template

    def triples(self) -> list[Triple]:
        """All triples of the record stream, instantiated as one batch."""
        return self.template.instantiate_all(list(self.records))


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
            ("node", ("entity_id", "t"), node_iri),
            ("trajectory", ("entity_id",), lambda entity_id: entity_iri("trajectory", entity_id)),
            ("mover", ("entity_id",), lambda entity_id: entity_iri("object", entity_id)),
            ("wkt", ("lon", "lat"), lambda lon, lat: Literal.wkt(point_to_wkt(GeoPoint(lon, lat)))),
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
            ("node", ("entity_id", "t"), node_iri),
            ("mover", ("entity_id",), lambda entity_id: entity_iri("object", entity_id)),
            ("wkt", ("lon", "lat"), lambda lon, lat: Literal.wkt(point_to_wkt(GeoPoint(lon, lat)))),
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
            ("region", ("region_id",), lambda region_id: entity_iri("region", region_id)),
            ("geom", ("polygon",), lambda polygon: Literal.wkt(polygon_to_wkt(polygon))),
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
            ("port", ("port_id",), lambda port_id: entity_iri("port", port_id)),
            ("geom", ("wkt",), Literal.wkt),
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
    return RDFGenerator(map(critical_point_record, points), semantic_node_template())


def raw_fix_rdfizer(fixes: Iterable[PositionFix]) -> RDFGenerator:
    return RDFGenerator(map(fix_record, fixes), raw_position_template())


def region_rdfizer(regions: Iterable[Region]) -> RDFGenerator:
    return RDFGenerator(map(region_record, regions), region_template())


def port_rdfizer(ports: Iterable[Port]) -> RDFGenerator:
    return RDFGenerator(map(port_record, ports), port_template())
