"""Relevance-aware trajectory clustering (Figure 11, the paper's [6]).

When analysing routing decisions, "only the cruise phase of a flight is
relevant for comparison, but not holding patterns nor takeoff and landing
runway directions". The workflow: interactive filtering attaches
*relevance flags* to trajectory elements; clustering then uses a distance
function that **ignores irrelevant elements**. This module implements
the flagging, the relevance-restricted distance (mean of
symmetric nearest-point distances over relevant elements only), and the
clustering (reusing the OPTICS machinery of the prediction package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

from ..geo import LocalProjection, PositionFix, Trajectory
from ..prediction.clustering import semt_optics


@dataclass(frozen=True, slots=True)
class FlaggedTrajectory:
    """A trajectory with a per-fix relevance flag."""

    trajectory: Trajectory
    flags: tuple[bool, ...]

    def __post_init__(self):
        if len(self.flags) != len(self.trajectory):
            raise ValueError("one flag per fix required")

    def relevant_fixes(self) -> list[PositionFix]:
        return [f for f, keep in zip(self.trajectory, self.flags) if keep]


def flag_final_approach(trajectory: Trajectory, final_km: float = 60.0) -> FlaggedTrajectory:
    """Mark only the final ~``final_km`` kilometres (arrival-flow analysis)."""
    fixes = list(trajectory)
    if not fixes:
        return FlaggedTrajectory(trajectory, ())
    last = fixes[-1]
    flags = tuple(f.distance_to(last) <= final_km * 1000.0 for f in fixes)
    return FlaggedTrajectory(trajectory, flags)


def relevance_distance(a: FlaggedTrajectory, b: FlaggedTrajectory) -> float:
    """Mean symmetric nearest-point distance over the *relevant* parts, in km.

    Irrelevant elements contribute nothing — two flights with identical
    cruise routes but different runway directions come out identical.
    Trajectories are subsampled to at most 60 relevant points to bound
    the O(n*m) cost.
    """
    pa = _subsample(a.relevant_fixes(), 60)
    pb = _subsample(b.relevant_fixes(), 60)
    if not pa or not pb:
        return math.inf
    proj = LocalProjection(pa[0].lon, pa[0].lat)
    xa = [proj.to_xy(f.lon, f.lat) for f in pa]
    xb = [proj.to_xy(f.lon, f.lat) for f in pb]
    return (_directed_mean(xa, xb) + _directed_mean(xb, xa)) / 2.0 / 1000.0


def _subsample(fixes: list[PositionFix], cap: int) -> list[PositionFix]:
    if len(fixes) <= cap:
        return fixes
    step = len(fixes) / cap
    return [fixes[int(i * step)] for i in range(cap)]


def _directed_mean(src: list[tuple[float, float]], dst: list[tuple[float, float]]) -> float:
    total = 0.0
    for x, y in src:
        total += min(math.hypot(x - bx, y - by) for bx, by in dst)
    return total / len(src)


@dataclass
class RelevanceClustering:
    """The clustering of a flagged-trajectory set."""

    labels: list[int]            # -1 = noise
    medoids: dict[int, int]

    @property
    def n_clusters(self) -> int:
        return len(self.medoids)

    def members(self, cluster_id: int) -> list[int]:
        return [i for i, lbl in enumerate(self.labels) if lbl == cluster_id]


def cluster_by_relevant_parts(
    flagged: Sequence[FlaggedTrajectory],
    threshold_km: float = 10.0,
    min_pts: int = 3,
    min_cluster_size: int = 3,
) -> RelevanceClustering:
    """OPTICS clustering under the relevance-restricted distance."""
    result = semt_optics(
        list(flagged),
        relevance_distance,
        threshold=threshold_km,
        min_pts=min_pts,
        min_cluster_size=min_cluster_size,
    )
    return RelevanceClustering(labels=result.labels, medoids=result.medoids)
