"""In-situ stream processing (S4): statistics, low-level events, cleaning."""

from .area_events import AreaEvent, AreaEventDetector, RegionIndex
from .quality import (
    ALL_ISSUES,
    ISSUE_COORD_RANGE,
    ISSUE_DUPLICATE_TIME,
    ISSUE_IMPLIED_SPEED,
    ISSUE_NON_FINITE_TIME,
    ISSUE_REPORTED_SPEED,
    ISSUE_TIME_ORDER,
    QualityConfig,
    QualityReport,
    QualityState,
    check_fix,
    clean_batch,
    clean_stream,
)
from .stats import (
    OnlineStats,
    TrajectoryStatsState,
    stats_for_fixes,
    update_trajectory_stats,
)

__all__ = [
    "ALL_ISSUES",
    "AreaEvent",
    "AreaEventDetector",
    "ISSUE_COORD_RANGE",
    "ISSUE_DUPLICATE_TIME",
    "ISSUE_IMPLIED_SPEED",
    "ISSUE_NON_FINITE_TIME",
    "ISSUE_REPORTED_SPEED",
    "ISSUE_TIME_ORDER",
    "OnlineStats",
    "QualityConfig",
    "QualityReport",
    "QualityState",
    "RegionIndex",
    "TrajectoryStatsState",
    "check_fix",
    "clean_batch",
    "clean_stream",
    "stats_for_fixes",
    "update_trajectory_stats",
]
