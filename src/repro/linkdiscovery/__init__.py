"""Spatio-temporal link discovery (S7): blocking, cell masks, refinement."""

from .blocking import BlockingStats, PortBlocks, RegionBlocks, default_grid
from .discoverer import DiscoveryResult, PortLinkDiscoverer, RegionLinkDiscoverer
from .masks import CellMasks, MaskStats
from .relations import (
    Link,
    NEAR_TO,
    WITHIN,
    point_near_port,
    point_within_region,
    points_near,
)
from .streaming import MovingProximityDiscoverer, StreamingStats

__all__ = [
    "BlockingStats",
    "CellMasks",
    "DiscoveryResult",
    "Link",
    "MaskStats",
    "MovingProximityDiscoverer",
    "NEAR_TO",
    "PortBlocks",
    "PortLinkDiscoverer",
    "RegionBlocks",
    "RegionLinkDiscoverer",
    "StreamingStats",
    "WITHIN",
    "default_grid",
    "point_near_port",
    "point_within_region",
    "points_near",
]
