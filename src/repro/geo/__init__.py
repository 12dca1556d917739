"""Geometry and spatio-temporal primitives (substrate S1).

Everything spatial in the stack — synopses, link discovery, the
knowledge-graph store's encoding, prediction errors, VA densities —
is built on this package.
"""

from . import kernels
from .columns import FLOAT_FIELDS, FixColumns
from .geometry import (
    BBox,
    GeoPoint,
    LocalProjection,
    Polygon,
    destination_point,
    haversine_m,
    initial_bearing_deg,
)
from .grid import Cell, EquiGrid, SpatioTemporalGrid
from .trajectory import (
    PositionFix,
    Trajectory,
    cross_track_error_m,
    group_fixes_by_entity,
)
from .units import (
    EARTH_RADIUS_M,
    KNOT_MS,
    NAUTICAL_MILE_M,
    feet_to_m,
    heading_difference,
    normalize_heading,
)
from .wkt import WKTError, parse_point, point_to_wkt, polygon_to_wkt

__all__ = [
    "BBox",
    "Cell",
    "EARTH_RADIUS_M",
    "EquiGrid",
    "FLOAT_FIELDS",
    "FixColumns",
    "GeoPoint",
    "KNOT_MS",
    "LocalProjection",
    "NAUTICAL_MILE_M",
    "Polygon",
    "PositionFix",
    "SpatioTemporalGrid",
    "Trajectory",
    "WKTError",
    "cross_track_error_m",
    "destination_point",
    "feet_to_m",
    "group_fixes_by_entity",
    "haversine_m",
    "heading_difference",
    "initial_bearing_deg",
    "kernels",
    "normalize_heading",
    "parse_point",
    "point_to_wkt",
    "polygon_to_wkt",
]
