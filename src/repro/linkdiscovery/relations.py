"""Spatio-temporal relations and link records (Section 4.2.4).

The datAcron link-discovery component detects spatio-temporal and
proximity relations — principally ``dul:within`` and ``geosparql:nearTo``
— between moving entities (critical points) and stationary entities
(regions, ports), as well as among moving entities. This module defines
the relation predicates and the link record produced when a pair
satisfies one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasources.ports import Port
from ..datasources.regions import Region
from ..geo import PositionFix, haversine_m

#: Relation identifiers (matching the paper's reported predicates).
WITHIN = "dul:within"
NEAR_TO = "geosparql:nearTo"


@dataclass(slots=True)
class Link:
    """A discovered relation between two entities at a point in time.

    Immutable by contract: a link is published once and read by every
    consumer of the links topic, so nothing assigns to it once built;
    ``tests/test_core_integration.py::test_stream_values_are_written_once``
    holds every composition to it. Not ``frozen``: a frozen ``__init__``
    costs several times a plain slots one, paid on every link of every
    poll. Nothing hashes a link, so it is unhashable.
    """

    source_id: str       # the moving entity / critical point id
    target_id: str       # the region / port / other moving entity id
    relation: str        # WITHIN | NEAR_TO
    t: float
    distance_m: float = 0.0

    def __reduce__(self):
        # Positional pickle: about 2x faster than the slots default
        # (``__getstate__``/``__setstate__`` walk the slots per object).
        return (
            type(self),
            (self.source_id, self.target_id, self.relation, self.t, self.distance_m),
        )


def point_within_region(fix: PositionFix, region: Region) -> bool:
    """The ``dul:within`` refinement: the exact point-in-polygon predicate.

    Deliberately evaluates the full geometry (no bbox shortcut): in the
    paper's framework all pruning is the responsibility of the blocking
    and cell-mask stages, and refinement pays the true geometric cost.
    """
    return region.polygon.contains_exact(fix.lon, fix.lat)


def point_near_port(fix: PositionFix, port: Port, threshold_m: float) -> tuple[bool, float]:
    """nearTo against a port: within threshold of the harbour point."""
    d = haversine_m(fix.lon, fix.lat, port.location.lon, port.location.lat)
    return d <= threshold_m, d


def points_near(a: PositionFix, b: PositionFix, space_m: float, time_s: float) -> tuple[bool, float]:
    """Spatio-temporal proximity between two moving entities.

    Near iff within ``space_m`` metres *and* ``time_s`` seconds — the
    temporal constraint is what lets the streaming variant clean up
    entities that are out of temporal scope.
    """
    if abs(a.t - b.t) > time_s:
        return False, float("inf")
    d = a.distance_to(b)
    return d <= space_m, d
