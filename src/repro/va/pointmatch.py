"""Point matching of predicted vs. actual trajectories (Figure 12).

For developing and evaluating trajectory prediction it is important to
compare predicted trajectories to actual ones in detail. The *point
matching* method pairs the two tracks point-by-point (by time alignment)
and reports the proportion of points matched within a distance
tolerance; the distribution of these proportions over a set of flights
exposes outliers — like the paper's runway-change flight, which matches
poorly near both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..geo import Trajectory


@dataclass(frozen=True, slots=True)
class PointMatchResult:
    """Point-matching outcome for one (actual, predicted) trajectory pair."""

    entity_id: str
    n_points: int
    n_matched: int
    distances_m: tuple[float, ...]

    @property
    def matched_proportion(self) -> float:
        return self.n_matched / self.n_points if self.n_points else math.nan

    @property
    def max_distance_m(self) -> float:
        return max(self.distances_m) if self.distances_m else math.nan


def match_points(actual: Trajectory, predicted: Trajectory, tolerance_m: float = 2000.0) -> PointMatchResult:
    """Match each actual fix against the spatially closest predicted point.

    A point "matches" when some predicted position lies within
    ``tolerance_m`` — the spatial-footprint comparison of the paper's
    Figure 12, where the runway-change outlier mismatches because its
    *track* leaves the predicted footprint, regardless of timing. The
    nearest-point search walks both tracks monotonically (both are
    time-ordered along broadly the same route), falling back to a local
    window scan, so matching stays O(n + m).
    """
    if tolerance_m <= 0:
        raise ValueError("tolerance must be positive")
    if len(actual) == 0 or len(predicted) == 0:
        raise ValueError("both trajectories must be non-empty")
    pred = list(predicted)
    distances = []
    matched = 0
    cursor = 0
    window = 25
    for fix in actual:
        lo = max(0, cursor - window)
        hi = min(len(pred), cursor + window + 1)
        best_d = math.inf
        best_i = cursor
        for i in range(lo, hi):
            d = fix.distance_to(pred[i])
            if d < best_d:
                best_d, best_i = d, i
        # Extend forward while the distance keeps improving (route progress).
        i = hi
        while i < len(pred):
            d = fix.distance_to(pred[i])
            if d < best_d:
                best_d, best_i = d, i
                i += 1
            else:
                break
        cursor = best_i
        distances.append(best_d)
        if best_d <= tolerance_m:
            matched += 1
    return PointMatchResult(
        entity_id=actual.entity_id,
        n_points=len(actual),
        n_matched=matched,
        distances_m=tuple(distances),
    )


@dataclass
class MatchDistribution:
    """The Figure-12 histogram: matched proportions over many pairs."""

    results: list[PointMatchResult]

    def proportions(self) -> list[float]:
        return [r.matched_proportion for r in self.results]

    def histogram(self, n_bins: int = 10) -> list[int]:
        """Counts of matched proportions over [0, 1] bins."""
        counts = [0] * n_bins
        for p in self.proportions():
            idx = min(n_bins - 1, int(p * n_bins))
            counts[idx] += 1
        return counts

    def mean_proportion(self) -> float:
        props = self.proportions()
        return sum(props) / len(props) if props else math.nan


def match_many(
    pairs: Sequence[tuple[Trajectory, Trajectory]],
    tolerance_m: float = 2000.0,
) -> MatchDistribution:
    """Point-match a set of (actual, predicted) pairs."""
    return MatchDistribution([match_points(a, p, tolerance_m) for a, p in pairs])
