"""Unit tests for repro.geo.units."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo import units


class TestConversions:
    def test_one_knot_is_nautical_mile_per_hour(self):
        assert units.KNOT_MS * 3600.0 == pytest.approx(units.NAUTICAL_MILE_M)

    def test_flight_level(self):
        # FL350 = 35,000 ft.
        assert units.flight_level_to_m(350) == pytest.approx(units.feet_to_m(35_000.0))

    def test_deg_rad_roundtrip(self):
        assert units.rad_to_deg(units.deg_to_rad(123.4)) == pytest.approx(123.4)


class TestHeadings:
    def test_normalize_negative(self):
        assert units.normalize_heading(-90.0) == pytest.approx(270.0)

    def test_normalize_wraparound(self):
        assert units.normalize_heading(720.5) == pytest.approx(0.5)

    def test_normalize_identity(self):
        assert units.normalize_heading(181.0) == pytest.approx(181.0)

    def test_normalize_exact_360(self):
        assert units.normalize_heading(360.0) == 0.0

    def test_difference_across_north(self):
        assert units.heading_difference(350.0, 10.0) == pytest.approx(20.0)

    def test_difference_is_symmetric(self):
        assert units.heading_difference(10.0, 200.0) == units.heading_difference(200.0, 10.0)

    def test_difference_max_180(self):
        assert units.heading_difference(0.0, 180.0) == pytest.approx(180.0)

    @given(st.floats(-1e4, 1e4, allow_nan=False))
    def test_normalize_range_property(self, h):
        n = units.normalize_heading(h)
        assert 0.0 <= n < 360.0

    @given(st.floats(-720, 720), st.floats(-720, 720))
    def test_difference_range_property(self, a, b):
        d = units.heading_difference(a, b)
        assert 0.0 <= d <= 180.0


class TestMetresPerDegree:
    def test_lat_degree_about_111km(self):
        assert units.metres_per_degree_lat() == pytest.approx(111_195, rel=1e-3)

    def test_lon_shrinks_with_latitude(self):
        assert units.metres_per_degree_lon(60.0) == pytest.approx(units.metres_per_degree_lat() * 0.5, rel=1e-9)

    def test_lon_at_equator_equals_lat(self):
        assert units.metres_per_degree_lon(0.0) == pytest.approx(units.metres_per_degree_lat())
