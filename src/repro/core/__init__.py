"""The integrated datAcron pipeline (S12): Figure 2 wired end to end."""

from .batch import BatchLayer, BatchReport
from .config import (
    ALL_TOPICS,
    SystemConfig,
    TOPIC_CLEAN,
    TOPIC_EVENTS,
    TOPIC_LINKS,
    TOPIC_RAW,
    TOPIC_SYNOPSES,
)
from .realtime import RealtimeLayer, RealtimeReport
from .sharded import ShardedRealtimeLayer
from .system import DatacronSystem, SystemRun

__all__ = [
    "ALL_TOPICS",
    "BatchLayer",
    "BatchReport",
    "DatacronSystem",
    "RealtimeLayer",
    "RealtimeReport",
    "ShardedRealtimeLayer",
    "SystemConfig",
    "SystemRun",
    "TOPIC_CLEAN",
    "TOPIC_EVENTS",
    "TOPIC_LINKS",
    "TOPIC_RAW",
    "TOPIC_SYNOPSES",
]
