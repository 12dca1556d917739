"""Visual analytics backends (S11): time masks, densities, clustering, dashboard."""

from .dashboard import Dashboard, DashboardState
from .density import DensityComparison, DensityGrid, compare_densities
from .histogram import TimeBin, TimeHistogram
from .pointmatch import MatchDistribution, PointMatchResult, match_many, match_points
from .relevance import (
    FlaggedTrajectory,
    RelevanceClustering,
    cluster_by_relevant_parts,
    flag_final_approach,
    relevance_distance,
)
from .timemask import Interval, TimeMask

__all__ = [
    "Dashboard",
    "DashboardState",
    "DensityComparison",
    "DensityGrid",
    "FlaggedTrajectory",
    "Interval",
    "MatchDistribution",
    "PointMatchResult",
    "RelevanceClustering",
    "TimeBin",
    "TimeHistogram",
    "TimeMask",
    "cluster_by_relevant_parts",
    "compare_densities",
    "flag_final_approach",
    "match_many",
    "match_points",
    "relevance_distance",
]
