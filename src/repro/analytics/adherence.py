"""Flight-plan adherence monitoring (the paper's ATM efficiency scenario, §2).

"For the airline, flying according to the plan, avoiding delays or
extra fuel consumption represents the ideal ... Accurate predictions of
trajectories will further advance adherence to flight plans (intended
trajectories) reducing many factors of uncertainty."

This module quantifies that adherence: per-flight lateral (cross-track)
and temporal deviation statistics against the filed plan, threshold
alerts for excursions, and fleet-level summaries — the quantities an
ANSP dashboard would track to decide whether regulations need
re-forecasting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..datasources.aviation import FlightPlan
from ..geo import Trajectory, cross_track_error_m


@dataclass(frozen=True, slots=True)
class AdherenceReport:
    """How closely one flight followed its plan."""

    flight_id: str
    mean_cross_track_m: float
    p95_cross_track_m: float
    max_cross_track_m: float
    excursion_fraction: float        # fraction of samples beyond the threshold
    delay_s: float                   # actual vs planned arrival time

    def adherent(self, max_p95_m: float = 5000.0) -> bool:
        """Whether the flight counts as plan-adherent: p95 lateral deviation
        within ``max_p95_m`` and at most 15 minutes early or late."""
        return self.p95_cross_track_m <= max_p95_m and abs(self.delay_s) <= 900.0


def assess_adherence(plan: FlightPlan, actual: Trajectory) -> AdherenceReport:
    """Score one flown trajectory against its filed plan, flown at 220 m/s;
    an excursion is a cross-track error above 5 km."""
    if len(actual) < 2:
        raise ValueError("actual trajectory too short to assess")
    reference = list(plan.planned_trajectory(sample_period_s=30.0, ground_speed_ms=220.0))
    errors = cross_track_error_m(list(actual), reference)
    ordered = sorted(errors)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    planned_arrival = reference[-1].t
    delay = actual.end_time() - planned_arrival
    return AdherenceReport(
        flight_id=plan.flight_id,
        mean_cross_track_m=sum(errors) / len(errors),
        p95_cross_track_m=p95,
        max_cross_track_m=max(errors),
        excursion_fraction=sum(1 for e in errors if e > 5000.0) / len(errors),
        delay_s=delay,
    )


@dataclass
class FleetAdherence:
    """Fleet-level adherence summary (the ANSP's predictability picture)."""

    reports: list[AdherenceReport]

    def adherent_fraction(self, max_p95_m: float = 5000.0) -> float:
        if not self.reports:
            return math.nan
        ok = sum(1 for r in self.reports if r.adherent(max_p95_m))
        return ok / len(self.reports)

    def worst(self, n: int = 5) -> list[AdherenceReport]:
        """The flights with the largest p95 lateral deviation."""
        return sorted(self.reports, key=lambda r: -r.p95_cross_track_m)[:n]

    def mean_cross_track_m(self) -> float:
        if not self.reports:
            return math.nan
        return sum(r.mean_cross_track_m for r in self.reports) / len(self.reports)


def assess_fleet(flights: Sequence[tuple[FlightPlan, Trajectory]]) -> FleetAdherence:
    """Score a whole day of operations."""
    return FleetAdherence([assess_adherence(plan, actual) for plan, actual in flights])
