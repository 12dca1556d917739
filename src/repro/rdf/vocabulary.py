"""Namespaces and the datAcron ontology vocabulary (Section 4.1).

The datAcron ontology represents semantic trajectories at varying levels
of spatio-temporal analysis: raw positions, semantic nodes (critical
points), trajectory parts, whole trajectories, and the events that occur
on them — aligned with DUL, GeoSPARQL Simple Features and SSN. This
module defines the subset of classes and properties the paper's
components exchange (Figure 3 of the paper).
"""

from __future__ import annotations

from .terms import IRI


class Namespace:
    """A convenience IRI factory: ``ns.term``."""

    def __init__(self, base: str):
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("_"):
            raise AttributeError(name)
        return IRI(self._base + name)

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


#: The datAcron ontology namespace.
DTC = Namespace("http://www.datacron-project.eu/datAcron#")
#: GeoSPARQL.
GEO = Namespace("http://www.opengis.net/ont/geosparql#")
#: Simple Features geometry classes.
SF = Namespace("http://www.opengis.net/ont/sf#")
#: RDF / RDFS built-ins.
RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")

#: rdf:type shorthand.
A = RDF.type


class DatacronVocabulary:
    """The classes and properties used across the reproduction.

    Grouped here (rather than scattered as string constants) so tests can
    assert that every RDFizer emits only vocabulary terms.
    """

    # Classes (Figure 3 of the paper).
    Trajectory = DTC.Trajectory
    SemanticNode = DTC.SemanticNode
    RawPosition = DTC.RawPosition
    Region = DTC.Region
    Port = DTC.Port
    Polygon = SF.Polygon

    # Object properties.
    ofMovingObject = DTC.ofMovingObject
    hasSemanticNode = DTC.hasSemanticNode

    # Datatype properties.
    asWKT = GEO.asWKT
    timestamp = DTC.hasTimestamp
    speed = DTC.reportedSpeed
    heading = DTC.reportedHeading
    altitude = DTC.reportedAltitude
    eventType = DTC.eventType
    regionKind = DTC.regionKind
    label = RDFS.label


VOC = DatacronVocabulary


def entity_iri(kind: str, identifier: str) -> IRI:
    """Mint the IRI of a domain entity (vessel, trajectory, node, ...)."""
    return IRI(f"{DTC.base}{kind}/{identifier}")


def node_iri(entity_id: str, t: float) -> IRI:
    """Mint the IRI of a semantic node of an entity at a point in time."""
    return IRI(f"{DTC.base}node/{entity_id}/{t:.3f}")
