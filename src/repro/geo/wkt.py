"""Well-Known Text (WKT) for the geometry types the knowledge graph stores.

The datAcron RDF generators (Section 4.2.3) extract the WKT
representation of geometries from shapefile-like sources and embed it
in ``geo:asWKT`` literals: points for surveillance positions and ports,
polygons for regions. The knowledge-graph store parses point literals
back to anchor nodes in space.
"""

from __future__ import annotations

import re

from .geometry import GeoPoint, Polygon

_NUMBER = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_POINT_RE = re.compile(rf"^\s*POINT\s*\(\s*({_NUMBER})\s+({_NUMBER})(?:\s+({_NUMBER}))?\s*\)\s*$", re.IGNORECASE)


class WKTError(ValueError):
    """Raised when a WKT string cannot be parsed."""


def point_to_wkt(point: GeoPoint) -> str:
    """Serialize a GeoPoint in 2-D."""
    return f"POINT ({point.lon:.6f} {point.lat:.6f})"


def parse_point(wkt: str) -> GeoPoint:
    """Parse a ``POINT (lon lat [alt])`` literal."""
    m = _POINT_RE.match(wkt)
    if not m:
        raise WKTError(f"not a WKT point: {wkt!r}")
    lon, lat = float(m.group(1)), float(m.group(2))
    alt = float(m.group(3)) if m.group(3) else 0.0
    return GeoPoint(lon, lat, alt)


def polygon_to_wkt(polygon: Polygon) -> str:
    """Serialize a Polygon, its ring explicitly closed."""
    closed = [*polygon.vertices, polygon.vertices[0]]
    return f"POLYGON (({', '.join(f'{lon:.6f} {lat:.6f}' for lon, lat in closed)}))"
