"""Visual analytics backends (S11): time masks, densities, clustering, dashboard."""

from .dashboard import Dashboard, DashboardState
from .density import DensityComparison, DensityGrid, compare_densities
from .histogram import TimeBin, TimeHistogram
from .pointmatch import MatchDistribution, PointMatchResult, match_many, match_points
from .quality import (
    CollectionProperties,
    DataQualityReport,
    MoverSetProperties,
    SpatialProperties,
    TemporalProperties,
    assess_quality,
)
from .relevance import (
    FlaggedTrajectory,
    RelevanceClustering,
    cluster_by_relevant_parts,
    flag_final_approach,
    relevance_distance,
)
from .timemask import Interval, TimeMask

__all__ = [
    "CollectionProperties",
    "Dashboard",
    "DashboardState",
    "DataQualityReport",
    "DensityComparison",
    "DensityGrid",
    "FlaggedTrajectory",
    "Interval",
    "MatchDistribution",
    "MoverSetProperties",
    "PointMatchResult",
    "RelevanceClustering",
    "SpatialProperties",
    "TemporalProperties",
    "TimeBin",
    "TimeHistogram",
    "TimeMask",
    "assess_quality",
    "cluster_by_relevant_parts",
    "compare_densities",
    "flag_final_approach",
    "match_many",
    "match_points",
    "relevance_distance",
]
