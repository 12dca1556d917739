"""Unit and property tests for repro.geo.geometry."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geometry import (
    BBox,
    LocalProjection,
    Polygon,
    haversine_m,
    initial_bearing_deg,
    destination_point,
)
from repro.geo.units import EARTH_RADIUS_M, deg_to_rad, rad_to_deg

from tests.oracles.polygon_cells import intersects_bbox, segments_intersect

lons = st.floats(-179.0, 179.0, allow_nan=False)
lats = st.floats(-80.0, 80.0, allow_nan=False)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_m(10.0, 45.0, 10.0, 45.0) == 0.0

    def test_one_degree_latitude(self):
        assert haversine_m(0.0, 0.0, 0.0, 1.0) == pytest.approx(111_195, rel=1e-3)

    def test_known_city_pair(self):
        # Barcelona (2.17E, 41.38N) to Madrid (-3.70W, 40.42N): ~505 km.
        d = haversine_m(2.17, 41.38, -3.70, 40.42)
        assert d == pytest.approx(505_000, rel=0.02)

    @given(lons, lats, lons, lats)
    def test_symmetry(self, lon1, lat1, lon2, lat2):
        assert haversine_m(lon1, lat1, lon2, lat2) == pytest.approx(haversine_m(lon2, lat2, lon1, lat1))

    @given(lons, lats, lons, lats)
    def test_nonnegative(self, lon1, lat1, lon2, lat2):
        assert haversine_m(lon1, lat1, lon2, lat2) >= 0.0


def _composed_haversine_m(lon1, lat1, lon2, lat2):
    """``haversine_m`` as it was written before ``deg_to_rad`` was inlined."""
    phi1 = deg_to_rad(lat1)
    phi2 = deg_to_rad(lat2)
    dphi = deg_to_rad(lat2 - lat1)
    dlmb = deg_to_rad(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def _composed_initial_bearing_deg(lon1, lat1, lon2, lat2):
    phi1 = deg_to_rad(lat1)
    phi2 = deg_to_rad(lat2)
    dlmb = deg_to_rad(lon2 - lon1)
    y = math.sin(dlmb) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlmb)
    deg = rad_to_deg(math.atan2(y, x))
    return deg + 360.0 if deg < 0.0 else deg


#: The full coordinate range with its awkward members made likely.
full_lons = st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0, 179.999999, -179.999999, 0.0, -0.0]))
full_lats = st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, 90.0, 0.0, -0.0]))


class TestInlinedKernelsAreBitEqual:
    """The hot-path kernels inline ``deg_to_rad``; the result must not move
    by one ulp, or cleaning and synopses verdicts near a threshold would."""

    @staticmethod
    def bits(x: float) -> bytes:
        return struct.pack("<d", x)

    @settings(max_examples=500)
    @given(full_lons, full_lats, full_lons, full_lats)
    def test_any_pair(self, lon1, lat1, lon2, lat2):
        args = (lon1, lat1, lon2, lat2)
        assert self.bits(haversine_m(*args)) == self.bits(_composed_haversine_m(*args))
        assert self.bits(initial_bearing_deg(*args)) == self.bits(_composed_initial_bearing_deg(*args))

    @given(full_lons, full_lats)
    def test_equal_points(self, lon, lat):
        args = (lon, lat, lon, lat)
        assert self.bits(haversine_m(*args)) == self.bits(_composed_haversine_m(*args))
        assert self.bits(initial_bearing_deg(*args)) == self.bits(_composed_initial_bearing_deg(*args))

    @pytest.mark.parametrize("args", [
        (179.9, 10.0, -179.9, 10.0),      # across the antimeridian
        (-180.0, 0.0, 180.0, 0.0),
        (0.0, 90.0, 120.0, 90.0),         # both at a pole
        (45.0, -90.0, -135.0, 90.0),      # pole to pole
        (0.0, 0.0, 180.0, 0.0),           # antipodal: the clamp
        (-0.0, -0.0, 0.0, 0.0),           # signed zeros
        (0.0, 0.0, -0.0, -0.0),
    ])
    def test_named_edges(self, args):
        assert self.bits(haversine_m(*args)) == self.bits(_composed_haversine_m(*args))
        assert self.bits(initial_bearing_deg(*args)) == self.bits(_composed_initial_bearing_deg(*args))


class TestBearingAndDestination:
    def test_north_bearing(self):
        assert initial_bearing_deg(0.0, 0.0, 0.0, 1.0) == pytest.approx(0.0)

    def test_east_bearing(self):
        assert initial_bearing_deg(0.0, 0.0, 1.0, 0.0) == pytest.approx(90.0)

    def test_destination_roundtrip(self):
        lon, lat = destination_point(2.0, 41.0, 135.0, 25_000.0)
        d = haversine_m(2.0, 41.0, lon, lat)
        assert d == pytest.approx(25_000.0, rel=1e-6)

    @given(lons, lats, st.floats(0, 359.9), st.floats(10.0, 500_000.0))
    @settings(max_examples=50)
    def test_destination_distance_property(self, lon, lat, brg, dist):
        lon2, lat2 = destination_point(lon, lat, brg, dist)
        assert haversine_m(lon, lat, lon2, lat2) == pytest.approx(dist, rel=1e-4)


class TestLocalProjection:
    def test_origin_maps_to_zero(self):
        proj = LocalProjection(3.0, 42.0)
        assert proj.to_xy(3.0, 42.0) == (0.0, 0.0)

    def test_roundtrip(self):
        proj = LocalProjection(3.0, 42.0)
        lon, lat = proj.to_lonlat(*proj.to_xy(3.21, 42.37))
        assert lon == pytest.approx(3.21)
        assert lat == pytest.approx(42.37)

    def test_matches_haversine_locally(self):
        proj = LocalProjection(3.0, 42.0)
        x, y = proj.to_xy(3.1, 42.05)
        planar = math.hypot(x, y)
        geodesic = haversine_m(3.0, 42.0, 3.1, 42.05)
        assert planar == pytest.approx(geodesic, rel=0.01)


class TestBBox:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            BBox(1.0, 0.0, 0.0, 1.0)

    def test_contains_edges(self):
        box = BBox(0.0, 0.0, 2.0, 2.0)
        assert box.contains(0.0, 0.0)
        assert box.contains(2.0, 2.0)
        assert not box.contains(2.01, 1.0)

    def test_intersects(self):
        a = BBox(0.0, 0.0, 2.0, 2.0)
        assert a.intersects(BBox(1.0, 1.0, 3.0, 3.0))
        assert a.intersects(BBox(2.0, 2.0, 3.0, 3.0))  # touching counts
        assert not a.intersects(BBox(2.1, 2.1, 3.0, 3.0))

    def test_of_points(self):
        box = BBox.of_points([(1.0, 5.0), (-1.0, 2.0), (0.5, 7.0)])
        assert box == BBox(-1.0, 2.0, 1.0, 7.0)

    def test_of_points_empty_raises(self):
        with pytest.raises(ValueError):
            BBox.of_points([])

    def test_expanded(self):
        box = BBox(0.0, 0.0, 1.0, 1.0).expanded(0.5)
        assert box == BBox(-0.5, -0.5, 1.5, 1.5)


SQUARE = Polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_closing_vertex_dropped(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(poly) == 3

    def test_contains_interior(self):
        assert SQUARE.contains(2.0, 2.0)

    def test_excludes_exterior(self):
        assert not SQUARE.contains(5.0, 2.0)
        assert not SQUARE.contains(-0.1, 2.0)

    def test_centroid(self):
        cx, cy = SQUARE.centroid()
        assert (cx, cy) == (2.0, 2.0)

    def test_intersects_bbox_overlap(self):
        assert intersects_bbox(SQUARE, BBox(3.0, 3.0, 5.0, 5.0))

    def test_intersects_bbox_containment_both_ways(self):
        assert intersects_bbox(SQUARE, BBox(1.0, 1.0, 2.0, 2.0))  # bbox inside polygon
        assert intersects_bbox(SQUARE, BBox(-1.0, -1.0, 5.0, 5.0))  # polygon inside bbox

    def test_intersects_bbox_disjoint(self):
        assert not intersects_bbox(SQUARE, BBox(10.0, 10.0, 11.0, 11.0))

    def test_edge_crossing_without_vertex_containment(self):
        # A thin bbox crossing the square's middle: no vertices inside either way.
        assert intersects_bbox(SQUARE, BBox(-1.0, 1.9, 5.0, 2.1))

    @given(st.floats(0.01, 3.99), st.floats(0.01, 3.99))
    def test_interior_points_property(self, x, y):
        assert SQUARE.contains(x, y)


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_touching_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_parallel_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_collinear_overlapping(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))
