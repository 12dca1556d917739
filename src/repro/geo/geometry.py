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

    def distance_3d_to(self, other: "GeoPoint") -> float:
        """Distance including the altitude difference, in metres."""
        d = self.distance_to(other)
        dz = self.alt - other.alt
        return math.hypot(d, dz)

    def bearing_to(self, other: "GeoPoint") -> float:
        """Initial great-circle bearing towards ``other``, degrees in [0, 360)."""
        return initial_bearing_deg(self.lon, self.lat, other.lon, other.lat)

    def destination(self, bearing_deg: float, distance_m: float) -> "GeoPoint":
        """The point reached by travelling ``distance_m`` along ``bearing_deg``."""
        lon, lat = destination_point(self.lon, self.lat, bearing_deg, distance_m)
        return GeoPoint(lon, lat, self.alt)


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

    def to_xy_batch(self, lons, lats) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`to_xy`: project coordinate arrays in one pass.

        Uses the same precomputed scale factors as the scalar twin, so
        the projected metres are bit-for-bit identical per element.
        """
        lon, lat = kernels.as_lonlat(lons, lats)
        return (lon - self.origin_lon) * self._mx, (lat - self.origin_lat) * self._my

    def to_lonlat_batch(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`to_lonlat`; bit-for-bit twin of the scalar inverse."""
        x, y = kernels.as_lonlat(xs, ys)
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

    def expanded_by_metres(self, margin_m: float) -> "BBox":
        """A copy grown by ``margin_m`` metres on every side."""
        lat = self.center[1]
        dlat = margin_m / metres_per_degree_lat()
        dlon = margin_m / max(1.0, metres_per_degree_lon(lat))
        return BBox(self.min_lon - dlon, self.min_lat - dlat, self.max_lon + dlon, self.max_lat + dlat)

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
    which is standard for surveillance-region work away from the poles),
    polygon-bbox overlap, and distance from a point to the boundary.
    """

    __slots__ = ("vertices", "bbox", "_holes", "_edges_np")

    def __init__(self, vertices: Sequence[tuple[float, float]], holes: Sequence[Sequence[tuple[float, float]]] = ()):
        pts = [(float(lon), float(lat)) for lon, lat in vertices]
        if len(pts) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        # Drop an explicit closing vertex if present.
        if pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError("a polygon needs at least 3 distinct vertices")
        self.vertices: list[tuple[float, float]] = pts
        self._holes: list[list[tuple[float, float]]] = [
            [(float(lon), float(lat)) for lon, lat in ring] for ring in holes
        ]
        self.bbox = BBox.of_points(pts)
        self._edges_np: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices, bbox={self.bbox})"

    @property
    def holes(self) -> list[list[tuple[float, float]]]:
        return self._holes

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
        if not _ring_contains(self.vertices, lon, lat):
            return False
        return not any(_ring_contains(ring, lon, lat) for ring in self._holes)

    def _edge_arrays(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Lazily built per-ring edge arrays (outer ring first) for batch PIP."""
        if self._edges_np is None:
            self._edges_np = kernels.rings_to_arrays([self.vertices, *self._holes])
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
        """Vectorized :meth:`contains_exact` (no bbox shortcut); holes excluded."""
        lon, lat = kernels.as_lonlat(lons, lats)
        rings = self._edge_arrays()
        inside = kernels.ring_contains_batch(rings[0], lon, lat)
        for hole in rings[1:]:
            inside &= ~kernels.ring_contains_batch(hole, lon, lat)
        return inside

    def area_deg2(self) -> float:
        """Signed shoelace area in square degrees (holes subtracted), absolute value."""
        area = abs(_ring_area(self.vertices))
        for ring in self._holes:
            area -= abs(_ring_area(ring))
        return max(0.0, area)

    def centroid(self) -> tuple[float, float]:
        """Vertex-average centroid (adequate for blocking/grid assignment)."""
        n = len(self.vertices)
        return (sum(v[0] for v in self.vertices) / n, sum(v[1] for v in self.vertices) / n)

    def edges(self) -> Iterator[tuple[tuple[float, float], tuple[float, float]]]:
        """Iterate the boundary edges (closing edge included)."""
        verts = self.vertices
        for i in range(len(verts)):
            yield verts[i], verts[(i + 1) % len(verts)]

    def distance_to_point_m(self, lon: float, lat: float) -> float:
        """Distance from the point to the polygon, in metres (0 if inside)."""
        if self.contains(lon, lat):
            return 0.0
        return polygon_boundary_distance_m(self, lon, lat)

    def distance_to_point_m_batch(self, lons, lats) -> np.ndarray:
        """Vectorized :meth:`distance_to_point_m` (0.0 for interior points)."""
        lon, lat = kernels.as_lonlat(lons, lats)
        out = np.zeros(lon.shape, dtype=np.float64)
        outside = ~self.contains_batch(lon, lat)
        if outside.any():
            out[outside] = kernels.polygon_boundary_distance_m_batch(self, lon[outside], lat[outside])
        return out

    def intersects_bbox(self, box: BBox) -> bool:
        """Whether the polygon overlaps the bbox (conservative exact test)."""
        if not self.bbox.intersects(box):
            return False
        # Any polygon vertex inside the box?
        if any(box.contains(lon, lat) for lon, lat in self.vertices):
            return True
        # Any box corner inside the polygon?
        corners = (
            (box.min_lon, box.min_lat),
            (box.min_lon, box.max_lat),
            (box.max_lon, box.min_lat),
            (box.max_lon, box.max_lat),
        )
        if any(self.contains(lon, lat) for lon, lat in corners):
            return True
        # Any polygon edge crossing a box edge?
        box_edges = (
            (corners[0], corners[1]),
            (corners[1], corners[3]),
            (corners[3], corners[2]),
            (corners[2], corners[0]),
        )
        return any(
            segments_intersect(e1[0], e1[1], e2[0], e2[1])
            for e1 in self.edges()
            for e2 in box_edges
        )


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


def _ring_area(ring: Sequence[tuple[float, float]]) -> float:
    """Signed shoelace area of a ring in square degrees."""
    area = 0.0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def polygon_boundary_distance_m(polygon: Polygon, lon: float, lat: float) -> float:
    """Distance in metres from the point to the polygon's outer boundary.

    The raw edge loop with no interior shortcut — the scalar oracle for
    ``kernels.polygon_boundary_distance_m_batch``. Each query point gets
    its own local ENU frame, so distances stay metre-accurate regardless
    of where the polygon sits.
    """
    proj = LocalProjection(lon, lat)
    px, py = 0.0, 0.0
    best = math.inf
    for (ax, ay), (bx, by) in polygon.edges():
        x1, y1 = proj.to_xy(ax, ay)
        x2, y2 = proj.to_xy(bx, by)
        best = min(best, _point_segment_distance(px, py, x1, y1, x2, y2))
    return best


def _point_segment_distance(px: float, py: float, x1: float, y1: float, x2: float, y2: float) -> float:
    """Euclidean distance from point (px,py) to segment (x1,y1)-(x2,y2).

    The norm is spelled ``sqrt(ex*ex + ey*ey)`` rather than ``hypot`` so
    the batch kernel (numpy has no fused hypot matching the libm one)
    reproduces it bit-for-bit.
    """
    dx, dy = x2 - x1, y2 - y1
    seg2 = dx * dx + dy * dy
    if seg2 <= 0.0:
        ex, ey = px - x1, py - y1
        return math.sqrt(ex * ex + ey * ey)
    t = ((px - x1) * dx + (py - y1) * dy) / seg2
    t = min(1.0, max(0.0, t))
    ex, ey = px - (x1 + t * dx), py - (y1 + t * dy)
    return math.sqrt(ex * ex + ey * ey)


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Cross-product orientation of the triple (a, b, c)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_intersect(
    a: tuple[float, float], b: tuple[float, float], c: tuple[float, float], d: tuple[float, float]
) -> bool:
    """Whether segment ab intersects segment cd (touching counts)."""
    d1 = _orient(*c, *d, *a)
    d2 = _orient(*c, *d, *b)
    d3 = _orient(*a, *b, *c)
    d4 = _orient(*a, *b, *d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    return (
        (d1 == 0 and _on_segment(c, d, a))
        or (d2 == 0 and _on_segment(c, d, b))
        or (d3 == 0 and _on_segment(a, b, c))
        or (d4 == 0 and _on_segment(a, b, d))
    )


def _on_segment(a: tuple[float, float], b: tuple[float, float], p: tuple[float, float]) -> bool:
    """Whether collinear point p lies within segment ab's bounding box."""
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
