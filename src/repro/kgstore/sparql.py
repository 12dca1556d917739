"""The query model: star basic-graph-patterns with spatio-temporal constraints.

The paper's experiment measures "star join queries with spatio-temporal
constraints" — the canonical access pattern over enriched trajectories:
*find semantic nodes (and their properties) within an area and a time
window*. A :class:`StarQuery` is a star BGP around one subject variable
plus an optional :class:`STConstraint`, e.g.::

    SELECT ?node ?speed WHERE {
        ?node rdf:type dtc:SemanticNode ;
              dtc:hasTimestamp ?t ;
              geo:asWKT ?wkt ;
              dtc:reportedSpeed ?speed .
        FILTER ( st_within(?wkt, BBOX) && ?t >= T0 && ?t <= T1 )
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..geo import BBox
from ..rdf import IRI, Term, Variable


@dataclass(frozen=True, slots=True)
class STConstraint:
    """A spatio-temporal range: bbox plus a closed time interval."""

    bbox: BBox
    t_min: float
    t_max: float

    def __post_init__(self):
        if self.t_max < self.t_min:
            raise ValueError("t_max must be >= t_min")

    def contains(self, lon: float, lat: float, t: float) -> bool:
        return self.t_min <= t <= self.t_max and self.bbox.contains(lon, lat)


@dataclass(frozen=True, slots=True)
class StarQuery:
    """A star BGP: one subject variable, fixed predicates, var-or-term objects."""

    subject: Variable
    arms: tuple[tuple[IRI, Union[Term, Variable]], ...]
    st: STConstraint | None = None

    def __post_init__(self):
        if not self.arms:
            raise ValueError("a star query needs at least one arm")


def star(subject: str, *arms: tuple[IRI, Union[Term, Variable]], st: STConstraint | None = None) -> StarQuery:
    """Convenience constructor: ``star("node", (VOC.speed, var("s")), st=...)``."""
    return StarQuery(Variable(subject), tuple(arms), st=st)
