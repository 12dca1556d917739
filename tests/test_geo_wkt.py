"""Tests for WKT writing and point parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import wkt
from repro.geo.geometry import GeoPoint, Polygon


class TestPoint:
    def test_roundtrip(self):
        p = GeoPoint(2.123456, 41.654321)
        q = wkt.parse_point(wkt.point_to_wkt(p))
        assert q.lon == pytest.approx(p.lon, abs=1e-6)
        assert q.lat == pytest.approx(p.lat, abs=1e-6)

    def test_writes_six_decimals_in_2d(self):
        assert wkt.point_to_wkt(GeoPoint(2.1234567, -41.5, 3500.0)) == "POINT (2.123457 -41.500000)"

    def test_with_altitude(self):
        q = wkt.parse_point("POINT (1.0 2.0 3500.0)")
        assert (q.lon, q.lat, q.alt) == (1.0, 2.0, 3500.0)

    def test_case_insensitive(self):
        assert wkt.parse_point("point (1 2)").lon == 1.0

    def test_scientific_notation(self):
        p = wkt.parse_point("POINT (1e1 -2.5E-1)")
        assert p.lon == 10.0
        assert p.lat == -0.25

    def test_reject_garbage(self):
        with pytest.raises(wkt.WKTError):
            wkt.parse_point("LINESTRING (0 0, 1 1)")

    @given(st.floats(-179, 179), st.floats(-89, 89))
    def test_roundtrip_property(self, lon, lat):
        q = wkt.parse_point(wkt.point_to_wkt(GeoPoint(lon, lat)))
        assert q.lon == pytest.approx(lon, abs=1e-5)
        assert q.lat == pytest.approx(lat, abs=1e-5)


class TestPolygon:
    def test_writes_the_closed_outer_ring(self):
        poly = Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 2.5), (0.0, 2.0)])
        assert wkt.polygon_to_wkt(poly) == (
            "POLYGON ((0.000000 0.000000, 2.000000 0.000000, 2.000000 2.500000, "
            "0.000000 2.000000, 0.000000 0.000000))"
        )

