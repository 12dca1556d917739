"""Trajectory analytics (Figure 2): collision risk and flight-plan adherence."""

from .adherence import AdherenceReport, FleetAdherence, assess_adherence, assess_fleet
from .collision import (
    CPAResult,
    CollisionRiskAssessor,
    CollisionWarning,
    CROSSING_GIVE_WAY,
    CROSSING_STAND_ON,
    HEAD_ON,
    OVERTAKING,
    classify_encounter,
    closest_point_of_approach,
)

__all__ = [
    "AdherenceReport",
    "CPAResult",
    "CROSSING_GIVE_WAY",
    "CROSSING_STAND_ON",
    "CollisionRiskAssessor",
    "CollisionWarning",
    "FleetAdherence",
    "HEAD_ON",
    "OVERTAKING",
    "assess_adherence",
    "assess_fleet",
    "classify_encounter",
    "closest_point_of_approach",
]
