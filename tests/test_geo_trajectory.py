"""Tests for trajectory containers and derived kinematics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.trajectory import (
    PositionFix,
    Trajectory,
    cross_track_error_m,
    group_fixes_by_entity,
)


def fix(t, lon, lat, alt=0.0, eid="v1", **kw):
    return PositionFix(entity_id=eid, t=t, lon=lon, lat=lat, alt=alt, **kw)


def straight_track(n=10, dt=10.0, dlon=0.01, eid="v1"):
    return Trajectory(eid, [fix(i * dt, i * dlon, 40.0, eid=eid) for i in range(n)])


class TestPositionFix:
    def test_point_property(self):
        f = fix(0.0, 1.0, 2.0, 300.0)
        assert (f.point.lon, f.point.lat, f.point.alt) == (1.0, 2.0, 300.0)

    def test_annotated_merges(self):
        f = fix(0.0, 1.0, 2.0).annotated(kind="stop")
        g = f.annotated(area="port")
        assert g.annotations == {"kind": "stop", "area": "port"}
        assert f.annotations == {"kind": "stop"}  # original untouched


class TestTrajectory:
    def test_sorts_by_time(self):
        tr = Trajectory("v1", [fix(10.0, 1.0, 1.0), fix(0.0, 0.0, 0.0)])
        assert [f.t for f in tr] == [0.0, 10.0]

    def test_rejects_foreign_fixes(self):
        with pytest.raises(ValueError):
            Trajectory("v1", [fix(0.0, 0.0, 0.0, eid="v2")])

    def test_duration(self):
        tr = straight_track(n=5, dt=10.0)
        assert tr.duration() == 40.0

    def test_empty_duration(self):
        assert Trajectory("v1", []).duration() == 0.0

    def test_at_time_interpolates(self):
        tr = straight_track(n=2, dt=10.0, dlon=0.02)
        mid = tr.at_time(5.0)
        assert mid.lon == pytest.approx(0.01)

    def test_at_time_clamps(self):
        tr = straight_track(n=3, dt=10.0)
        assert tr.at_time(-5.0).t == 0.0
        assert tr.at_time(1000.0).t == 20.0

    def test_resampled_uniform(self):
        tr = straight_track(n=5, dt=10.0)
        rs = tr.resampled(5.0)
        periods = {round(b.t - a.t, 6) for a, b in zip(rs, list(rs)[1:])}
        assert periods == {5.0}

    def test_resampled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            straight_track().resampled(0.0)

    def test_to_xy_origin(self):
        xy = straight_track(n=3).to_xy()
        assert xy[0] == (0.0, 0.0)
        assert xy[1][0] > 0


class TestHelpers:
    def test_group_fixes_by_entity(self):
        fixes = [fix(0, 0, 0, eid="a"), fix(1, 0, 0, eid="b"), fix(2, 0, 0, eid="a")]
        groups = group_fixes_by_entity(fixes)
        assert set(groups) == {"a", "b"}
        assert len(groups["a"]) == 2

    def test_cross_track_error_on_path_is_zero(self):
        ref = [fix(0, 0.0, 40.0), fix(100, 1.0, 40.0)]
        actual = [fix(50, 0.5, 40.0)]
        assert cross_track_error_m(actual, ref)[0] == pytest.approx(0.0, abs=1.0)

    def test_cross_track_error_offset(self):
        ref = [fix(0, 0.0, 40.0), fix(100, 1.0, 40.0)]
        actual = [fix(50, 0.5, 40.01)]  # ~1.1 km north of the path
        err = cross_track_error_m(actual, ref)[0]
        assert err == pytest.approx(1112.0, rel=0.05)

    def test_cross_track_error_needs_reference(self):
        with pytest.raises(ValueError):
            cross_track_error_m([fix(0, 0, 0)], [fix(0, 0, 0)])

    @given(st.lists(st.floats(0.0, 1000.0), min_size=2, max_size=20, unique=True))
    def test_trajectory_always_sorted_property(self, times):
        tr = Trajectory("v1", [fix(t, 0.0, 0.0) for t in times])
        ts = [f.t for f in tr]
        assert ts == sorted(ts)
