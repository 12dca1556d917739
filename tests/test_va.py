"""Tests for the visual-analytics backends."""

import math

import pytest

from repro.geo import BBox, PositionFix, Trajectory
from repro.obs import HealthMonitor, MetricsRegistry
from repro.synopses import CriticalPoint
from repro.va import (
    Dashboard,
    DensityGrid,
    FlaggedTrajectory,
    Interval,
    TimeHistogram,
    TimeMask,
    cluster_by_relevant_parts,
    compare_densities,
    flag_final_approach,
    match_many,
    match_points,
    relevance_distance,
)

BOX = BBox(0.0, 0.0, 10.0, 10.0)


def fix(t, lon, lat, eid="v1", alt=0.0, **kw):
    return PositionFix(entity_id=eid, t=t, lon=lon, lat=lat, alt=alt, **kw)


def track(eid, lons, lat=5.0, dt=60.0, alt=0.0):
    return Trajectory(eid, [fix(i * dt, lon, lat, eid=eid, alt=alt) for i, lon in enumerate(lons)])


class TestTimeHistogram:
    def test_binning(self):
        h = TimeHistogram(0.0, 3600.0, 600.0)
        h.add(0.0)
        h.add(599.0)
        h.add(600.0)
        assert h.series() == [2, 1, 0, 0, 0, 0]

    def test_categories(self):
        h = TimeHistogram(0.0, 1200.0, 600.0)
        h.add(10.0, "c0")
        h.add(20.0, "c1")
        h.add(700.0, "c0")
        assert [b.counts.get("c0", 0) for b in h.bins()] == [1, 1]
        assert [b.counts.get("c1", 0) for b in h.bins()] == [1, 0]
        assert h.categories() == ["c0", "c1"]

    def test_out_of_range_counted(self):
        h = TimeHistogram(0.0, 600.0, 600.0)
        h.add(-1.0)
        h.add(600.0)
        assert h.out_of_range == 2
        assert h.series() == [0]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TimeHistogram(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            TimeHistogram(10.0, 0.0, 1.0)


class TestTimeMask:
    def test_merge_overlapping(self):
        mask = TimeMask([Interval(0.0, 10.0), Interval(5.0, 20.0), Interval(30.0, 40.0)])
        assert len(mask) == 2
        assert mask.total_duration() == 30.0

    def test_contains(self):
        mask = TimeMask([Interval(10.0, 20.0)])
        assert mask.contains(10.0)
        assert mask.contains(19.9)
        assert not mask.contains(20.0)
        assert not mask.contains(5.0)

    def test_from_histogram_with_query(self):
        """The Figure-10 workflow: select hours containing >= 1 event."""
        h = TimeHistogram(0.0, 4 * 3600.0, 3600.0)
        h.add(3800.0, "near_event")   # hour 1 only
        mask = TimeMask.from_histogram(h, lambda b: b.counts.get("near_event", 0) >= 1)
        assert len(mask) == 1
        assert mask.contains(2 * 3600.0 - 1)
        assert not mask.contains(0.0)

    def test_split_trajectory(self):
        mask = TimeMask([Interval(60.0, 180.0)])
        tr = track("v1", [1.0, 1.1, 1.2, 1.3])
        inside, outside = mask.split_trajectory(tr)
        assert [f.t for f in inside] == [60.0, 120.0]
        assert [f.t for f in outside] == [0.0, 180.0]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(10.0, 10.0)


class TestDensity:
    def test_add_and_peak(self):
        d = DensityGrid(BOX, cols=10, rows=10)
        for _ in range(5):
            d.add(5.0, 5.0)
        d.add(1.0, 1.0)
        row, col, count = d.peak_cell()
        assert count == 5
        assert d.samples == 6
        assert d.occupied_cells() == 2

    def test_normalized_sums_to_one(self):
        d = DensityGrid(BOX, cols=4, rows=4)
        d.add(1.0, 1.0)
        d.add(9.0, 9.0)
        assert d.normalized().sum() == pytest.approx(1.0)

    def test_compare_identical(self):
        a = DensityGrid(BOX, cols=5, rows=5)
        b = DensityGrid(BOX, cols=5, rows=5)
        for g in (a, b):
            g.add(2.0, 2.0)
            g.add(8.0, 8.0)
        cmp = compare_densities(a, b)
        assert cmp.l1_difference == pytest.approx(0.0)
        assert cmp.only_in_a == 0

    def test_compare_disjoint(self):
        a = DensityGrid(BOX, cols=5, rows=5)
        b = DensityGrid(BOX, cols=5, rows=5)
        a.add(1.0, 1.0)
        b.add(9.0, 9.0)
        cmp = compare_densities(a, b)
        assert cmp.l1_difference == pytest.approx(2.0)
        assert cmp.only_in_a == 1 and cmp.only_in_b == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare_densities(DensityGrid(BOX, 4, 4), DensityGrid(BOX, 5, 5))


class TestRelevance:
    def test_relevant_fixes_follow_the_flags(self):
        flagged = FlaggedTrajectory(track("v1", [1.0, 2.0, 3.0]), (False, True, True))
        assert [f.lon for f in flagged.relevant_fixes()] == [2.0, 3.0]

    def test_flag_final_approach(self):
        tr = track("v1", [1.0, 2.0, 3.0, 3.01])
        flagged = flag_final_approach(tr, final_km=30.0)
        assert flagged.flags[-1] and flagged.flags[-2]
        assert not flagged.flags[0]

    def test_distance_ignores_irrelevant(self):
        """Identical cruise, different endings: distance must be ~0."""
        a = track("a", [1.0, 2.0, 3.0, 4.0])
        b_fixes = list(track("b", [1.0, 2.0, 3.0]).fixes) + [fix(180.0, 3.0, 6.0, eid="b")]
        b = Trajectory("b", b_fixes)
        fa = FlaggedTrajectory(a, (True, True, True, False))
        fb = FlaggedTrajectory(b, (True, True, True, False))
        assert relevance_distance(fa, fb) < 1.0

    def test_distance_inf_when_nothing_relevant(self):
        a = FlaggedTrajectory(track("a", [1.0, 2.0]), (False, False))
        b = FlaggedTrajectory(track("b", [1.0, 2.0]), (True, True))
        assert math.isinf(relevance_distance(a, b))

    def test_clustering_separates_routes(self):
        flagged = []
        for i in range(6):   # route family A: lat 3
            flagged.append(FlaggedTrajectory(track(f"a{i}", [1.0, 2.0, 3.0, 4.0], lat=3.0), (True,) * 4))
        for i in range(6):   # route family B: lat 7
            flagged.append(FlaggedTrajectory(track(f"b{i}", [1.0, 2.0, 3.0, 4.0], lat=7.0), (True,) * 4))
        clustering = cluster_by_relevant_parts(flagged, threshold_km=60.0, min_pts=3)
        assert clustering.n_clusters == 2
        labels_a = {clustering.labels[i] for i in range(6)}
        labels_b = {clustering.labels[i] for i in range(6, 12)}
        assert labels_a.isdisjoint(labels_b)

    def test_flag_length_mismatch(self):
        with pytest.raises(ValueError):
            FlaggedTrajectory(track("v1", [1.0, 2.0]), (True,))


class TestPointMatch:
    def test_perfect_match(self):
        tr = track("v1", [1.0, 2.0, 3.0])
        result = match_points(tr, tr)
        assert result.matched_proportion == 1.0
        assert result.max_distance_m == pytest.approx(0.0)

    def test_offset_fails_to_match(self):
        a = track("v1", [1.0, 2.0, 3.0], lat=5.0)
        b = track("v1", [1.0, 2.0, 3.0], lat=5.5)   # ~55 km north
        result = match_points(a, b, tolerance_m=2000.0)
        assert result.matched_proportion == 0.0

    def test_distribution_and_outliers(self):
        good = track("g", [1.0, 2.0, 3.0])
        bad_actual = track("b", [1.0, 2.0, 3.0], lat=6.0)
        bad_predicted = track("b", [1.0, 2.0, 3.0], lat=5.0)
        dist = match_many([(good, good), (bad_actual, bad_predicted)])
        assert dist.mean_proportion() == pytest.approx(0.5)
        assert [r.entity_id for r in dist.results if r.matched_proportion < 0.5] == ["b"]
        assert sum(dist.histogram(10)) == 2

    def test_validation(self):
        tr = track("v1", [1.0, 2.0])
        with pytest.raises(ValueError):
            match_points(tr, tr, tolerance_m=0.0)
        with pytest.raises(ValueError):
            match_points(Trajectory("v1", []), tr)


class TestDashboard:
    def make(self):
        registry = MetricsRegistry()
        return Dashboard(BOX, registry, HealthMonitor(registry))

    @staticmethod
    def counters(dash):
        return dash.registry.counters("dashboard.")

    def test_frame_renders(self):
        dash = self.make()
        dash.ingest_fix(fix(0.0, 5.0, 5.0))
        frame = dash.render_frame(t=0.0)
        assert "situation monitor" in frame
        assert "positions=1" in frame
        assert frame.splitlines()[1] == "health: OK"
        assert frame.count("\n") > 8

    def test_map_shows_entities(self):
        dash = self.make()
        dash.ingest_fix(fix(0.0, 5.0, 5.0, eid="a"))
        dash.ingest_fix(fix(0.0, 9.9, 9.9, eid="b"))
        lines = dash.render_map()
        non_blank = sum(1 for line in lines for ch in line if ch != " ")
        assert non_blank == 2
        assert dash.entity_count() == 2

    def test_events_rolled(self):
        dash = self.make()
        for i in range(20):
            dash.ingest_alert(float(i), f"alert-{i}")
        assert len(dash.state.recent_events) == dash.state.max_recent
        assert "alert-19" in dash.state.recent_events[-1]

    def test_critical_point_ingestion(self):
        dash = self.make()
        cp = CriticalPoint(fix(0.0, 5.0, 5.0), "turn")
        dash.ingest_critical_point(cp)
        assert self.counters(dash) == {"dashboard.synopses": 1, "dashboard.events": 1}
        assert any("turn" in e for e in dash.state.recent_events)

    def test_positions_updated_not_duplicated(self):
        dash = self.make()
        dash.ingest_fix(fix(0.0, 5.0, 5.0, eid="a"))
        dash.ingest_fix(fix(10.0, 6.0, 6.0, eid="a"))
        assert dash.entity_count() == 1
        assert self.counters(dash) == {"dashboard.positions": 2}

    def test_ingest_fixes_is_ingest_fix_in_a_loop(self):
        fixes = [fix(float(t), 5.0 + t, 5.0, eid=eid) for t, eid in enumerate("abacb")]
        one, many = self.make(), self.make()
        for f in fixes:
            one.ingest_fix(f)
        many.ingest_fixes(fixes[:2])
        many.ingest_fixes(fixes[2:])
        many.ingest_fixes([])
        assert list(many.state.last_position.items()) == list(one.state.last_position.items())
        assert self.counters(many) == self.counters(one) == {"dashboard.positions": 5}
