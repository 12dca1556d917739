"""Physical units and conversions used across the mobility stack.

All geographic computations in the library use the WGS84 spherical
approximation: good to ~0.5% for the ranges involved in AIS/ADS-B
surveillance, and identical to what online surveillance systems
(and the datAcron prototypes) use for speed.

Conventions
-----------
- longitudes/latitudes in decimal degrees,
- distances in metres,
- speeds in metres per second (:data:`KNOT_MS` converts the knots that
  both AIS and ATM feeds natively report),
- altitudes in metres (helpers for feet / flight levels),
- timestamps as POSIX seconds (float).
"""

from __future__ import annotations

import math

#: Mean Earth radius (metres), IUGG value.
EARTH_RADIUS_M = 6_371_008.8

#: One international nautical mile in metres.
NAUTICAL_MILE_M = 1852.0

#: One foot in metres.
FOOT_M = 0.3048

#: One knot (nautical mile per hour) in metres per second.
KNOT_MS = NAUTICAL_MILE_M / 3600.0


def feet_to_m(feet: float) -> float:
    """Convert an altitude in feet to metres."""
    return feet * FOOT_M


def flight_level_to_m(fl: float) -> float:
    """Convert a flight level (hundreds of feet) to metres."""
    return feet_to_m(fl * 100.0)


def deg_to_rad(deg: float) -> float:
    """Degrees to radians."""
    return deg * math.pi / 180.0


def rad_to_deg(rad: float) -> float:
    """Radians to degrees."""
    return rad * 180.0 / math.pi


def normalize_heading(deg: float) -> float:
    """Normalize a heading to the range [0, 360).

    >>> normalize_heading(-90.0)
    270.0
    >>> normalize_heading(720.5)
    0.5
    """
    h = math.fmod(deg, 360.0)
    if h < 0.0:
        h += 360.0
    # fmod of values like 360.0 - 1e-16 can round back to 360.0
    return 0.0 if h >= 360.0 else h


def heading_difference(a: float, b: float) -> float:
    """Smallest absolute angular difference between two headings, in [0, 180].

    >>> heading_difference(350.0, 10.0)
    20.0
    """
    d = abs(normalize_heading(a) - normalize_heading(b))
    return 360.0 - d if d > 180.0 else d


def metres_per_degree_lat() -> float:
    """Metres spanned by one degree of latitude (spherical Earth)."""
    return EARTH_RADIUS_M * math.pi / 180.0


def metres_per_degree_lon(lat_deg: float) -> float:
    """Metres spanned by one degree of longitude at the given latitude."""
    return metres_per_degree_lat() * math.cos(deg_to_rad(lat_deg))
