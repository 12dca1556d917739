"""Planar/geodesic geometry primitives: points, bounding boxes, polygons.

These are the building blocks of every spatial component in the stack:
the synopses generator, link discovery (Section 4.2.4 of the paper),
the knowledge-graph store's spatio-temporal encoding and the visual
analytics density/filtering backends.

Geodesic distance uses the haversine formula; for local work (turn-rate
estimation, cross-track errors) positions are projected to a local
east-north-up (ENU) tangent plane, which is what trajectory-prediction
literature uses for errors quoted in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .units import EARTH_RADIUS_M, deg_to_rad, metres_per_degree_lat, metres_per_degree_lon, rad_to_deg


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A geographic position: longitude/latitude in degrees, altitude in metres."""

    lon: float
    lat: float
    alt: float = 0.0

    def distance_to(self, other: "GeoPoint") -> float:
        """Great-circle surface distance to ``other`` in metres."""
        return haversine_m(self.lon, self.lat, other.lon, other.lat)


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance between two lon/lat pairs, in metres."""
    # Twice per clean fix on the Figure-2 path: ``deg_to_rad`` is inlined,
    # operation for operation, so the result stays bit-equal to composing it.
    sin, cos, pi = math.sin, math.cos, math.pi
    sin_dphi = sin((lat2 - lat1) * pi / 180.0 / 2.0)
    sin_dlmb = sin((lon2 - lon1) * pi / 180.0 / 2.0)
    a = sin_dphi ** 2 + cos(lat1 * pi / 180.0) * cos(lat2 * pi / 180.0) * sin_dlmb ** 2
    # Clamp for numerical safety near antipodal points.
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def initial_bearing_deg(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Initial bearing from point 1 to point 2, degrees clockwise from north."""
    sin, cos, pi = math.sin, math.cos, math.pi
    phi1 = lat1 * pi / 180.0
    phi2 = lat2 * pi / 180.0
    dlmb = (lon2 - lon1) * pi / 180.0
    y = sin(dlmb) * cos(phi2)
    x = cos(phi1) * sin(phi2) - sin(phi1) * cos(phi2) * cos(dlmb)
    theta = math.atan2(y, x)
    deg = rad_to_deg(theta)
    return deg + 360.0 if deg < 0.0 else deg


def destination_point(lon: float, lat: float, bearing_deg: float, distance_m: float) -> tuple[float, float]:
    """Destination lon/lat after travelling ``distance_m`` on ``bearing_deg``."""
    delta = distance_m / EARTH_RADIUS_M
    theta = deg_to_rad(bearing_deg)
    phi1 = deg_to_rad(lat)
    lmb1 = deg_to_rad(lon)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    phi2 = math.asin(min(1.0, max(-1.0, sin_phi2)))
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * math.sin(phi2)
    lmb2 = lmb1 + math.atan2(y, x)
    lon2 = rad_to_deg(lmb2)
    # Normalize longitude to [-180, 180).
    lon2 = (lon2 + 540.0) % 360.0 - 180.0
    return lon2, rad_to_deg(phi2)


class LocalProjection:
    """Equirectangular projection to a local ENU-style plane (metres).

    Accurate for regional extents (hundreds of km), which matches every
    per-trajectory computation in the paper: turn detection, per-waypoint
    deviations (Figure 5b), cross-track errors.
    """

    def __init__(self, origin_lon: float, origin_lat: float):
        self.origin_lon = origin_lon
        self.origin_lat = origin_lat
        self._mx = metres_per_degree_lon(origin_lat)
        self._my = metres_per_degree_lat()

    def to_xy(self, lon: float, lat: float) -> tuple[float, float]:
        """Project lon/lat to local (east, north) metres."""
        return (lon - self.origin_lon) * self._mx, (lat - self.origin_lat) * self._my

    def to_lonlat(self, x: float, y: float) -> tuple[float, float]:
        """Inverse projection from local metres back to lon/lat degrees."""
        return self.origin_lon + x / self._mx, self.origin_lat + y / self._my


@dataclass(frozen=True, slots=True)
class BBox:
    """An axis-aligned lon/lat bounding box."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if self.min_lon > self.max_lon or self.min_lat > self.max_lat:
            raise ValueError(f"degenerate bbox: {self}")

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    @property
    def center(self) -> tuple[float, float]:
        return (self.min_lon + self.max_lon) / 2.0, (self.min_lat + self.max_lat) / 2.0

    def contains(self, lon: float, lat: float) -> bool:
        """Whether the point lies inside (inclusive of edges)."""
        return self.min_lon <= lon <= self.max_lon and self.min_lat <= lat <= self.max_lat

    def contains_batch(self, lons, lats) -> np.ndarray:
        """Vectorized :meth:`contains`; bit-for-bit twin (pure comparisons)."""
        lon, lat = kernels.as_lonlat(lons, lats)
        return (self.min_lon <= lon) & (lon <= self.max_lon) & (self.min_lat <= lat) & (lat <= self.max_lat)

    def intersects(self, other: "BBox") -> bool:
        """Whether the two boxes overlap (touching counts)."""
        return not (
            other.min_lon > self.max_lon
            or other.max_lon < self.min_lon
            or other.min_lat > self.max_lat
            or other.max_lat < self.min_lat
        )

    def expanded(self, margin_deg: float) -> "BBox":
        """A copy grown by ``margin_deg`` degrees on every side."""
        return BBox(
            self.min_lon - margin_deg,
            self.min_lat - margin_deg,
            self.max_lon + margin_deg,
            self.max_lat + margin_deg,
        )

    @staticmethod
    def of_points(points: Iterable[tuple[float, float]]) -> "BBox":
        """The tight bounding box of an iterable of (lon, lat) pairs."""
        it = iter(points)
        try:
            lon, lat = next(it)
        except StopIteration:
            raise ValueError("cannot build a bbox from zero points") from None
        min_lon = max_lon = lon
        min_lat = max_lat = lat
        for lon, lat in it:
            min_lon = min(min_lon, lon)
            max_lon = max(max_lon, lon)
            min_lat = min(min_lat, lat)
            max_lat = max(max_lat, lat)
        return BBox(min_lon, min_lat, max_lon, max_lat)


class Polygon:
    """A simple (non-self-intersecting) polygon over lon/lat vertices.

    Supports point-in-polygon (ray casting, treating lon/lat as planar,
    which is standard for surveillance-region work away from the poles).
    """

    __slots__ = ("vertices", "bbox", "_edges_np")

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        pts = [(float(lon), float(lat)) for lon, lat in vertices]
        if len(pts) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        # Drop an explicit closing vertex if present.
        if pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError("a polygon needs at least 3 distinct vertices")
        self.vertices: list[tuple[float, float]] = pts
        self.bbox = BBox.of_points(pts)
        self._edges_np: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices, bbox={self.bbox})"

    def contains(self, lon: float, lat: float) -> bool:
        """Point-in-polygon test (even-odd rule); boundary points count as inside."""
        if not self.bbox.contains(lon, lat):
            return False
        return self.contains_exact(lon, lat)

    def contains_exact(self, lon: float, lat: float) -> bool:
        """The exact even-odd test with no bounding-box shortcut.

        This is the refinement predicate of the link-discovery framework:
        the pruning work belongs to the blocking/mask stages, so refinement
        is the full geometric evaluation.
        """
        return _ring_contains(self.vertices, lon, lat)

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Lazily built edge arrays ``(x1, y1, x2, y2)`` for batch PIP."""
        if self._edges_np is None:
            x1, y1 = np.asarray(self.vertices, dtype=np.float64).T
            self._edges_np = (x1, y1, np.roll(x1, -1), np.roll(y1, -1))
        return self._edges_np

    def contains_batch(self, lons, lats) -> np.ndarray:
        """Vectorized :meth:`contains`: bbox prefilter, then exact even-odd.

        Bit-for-bit twin of the scalar path — the predicate is pure
        arithmetic, so the verdict array equals a per-point loop exactly.
        """
        lon, lat = kernels.as_lonlat(lons, lats)
        verdict = self.bbox.contains_batch(lon, lat)
        if verdict.any():
            verdict[verdict] = self.contains_exact_batch(lon[verdict], lat[verdict])
        return verdict

    def contains_exact_batch(self, lons, lats) -> np.ndarray:
        """Vectorized :meth:`contains_exact` (no bbox shortcut)."""
        lon, lat = kernels.as_lonlat(lons, lats)
        return kernels.ring_contains_batch(self._edge_arrays(), lon, lat)

    def centroid(self) -> tuple[float, float]:
        """Vertex-average centroid (adequate for blocking/grid assignment)."""
        n = len(self.vertices)
        return (sum(v[0] for v in self.vertices) / n, sum(v[1] for v in self.vertices) / n)

    def edges(self) -> Iterator[tuple[tuple[float, float], tuple[float, float]]]:
        """Iterate the boundary edges (closing edge included)."""
        verts = self.vertices
        for i in range(len(verts)):
            yield verts[i], verts[(i + 1) % len(verts)]


def _ring_contains(ring: Sequence[tuple[float, float]], lon: float, lat: float) -> bool:
    """Even-odd ray-casting point-in-ring test, boundary-inclusive."""
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        # On-vertex / on-horizontal-edge fast checks.
        if (lon, lat) == (x1, y1):
            return True
        if (y1 > lat) != (y2 > lat):
            x_cross = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
            if abs(x_cross - lon) < 1e-15:
                return True
            if lon < x_cross:
                inside = not inside
    return inside


