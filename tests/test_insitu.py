"""Tests for in-situ processing: stats, area events, quality."""

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasources.regions import Region
from repro.geo import FixColumns, PositionFix, Polygon
from repro.insitu import (
    AreaEventDetector,
    ISSUE_COORD_RANGE,
    ISSUE_DUPLICATE_TIME,
    ISSUE_NON_FINITE_TIME,
    ISSUE_IMPLIED_SPEED,
    ISSUE_REPORTED_SPEED,
    ISSUE_TIME_ORDER,
    OnlineStats,
    QualityConfig,
    QualityReport,
    RegionIndex,
    TrajectoryStatsState,
    clean_batch,
    clean_stream,
    stats_for_fixes,
    update_trajectory_stats,
)

from tests.plants import CONFIGS, QUALITY, REPORT, chunks, planted_stream


def fix(t, lon, lat, eid="v1", **kw):
    return PositionFix(entity_id=eid, t=t, lon=lon, lat=lat, **kw)


class TestOnlineStats:
    def test_empty_is_nan(self):
        s = OnlineStats()
        assert math.isnan(s.mean) and math.isnan(s.median)

    def test_basic_moments(self):
        s = OnlineStats()
        for x in [1.0, 2.0, 3.0, 4.0]:
            s.add(x)
        assert s.count == 4
        assert s.min == 1.0 and s.max == 4.0
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)

    def test_median_odd(self):
        s = OnlineStats()
        for x in [5.0, 1.0, 3.0]:
            s.add(x)
        assert s.median == 3.0

    def test_nan_ignored(self):
        s = OnlineStats()
        s.add(float("nan"))
        s.add(2.0)
        assert s.count == 1

    def test_stdev(self):
        s = OnlineStats()
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            s.add(x)
        assert s.stdev == pytest.approx(2.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_median_matches_sorted_property(self, xs):
        s = OnlineStats()
        for x in xs:
            s.add(x)
        xs_sorted = sorted(xs)
        n = len(xs_sorted)
        expected = xs_sorted[n // 2] if n % 2 else (xs_sorted[n // 2 - 1] + xs_sorted[n // 2]) / 2.0
        assert s.median == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_mean_matches_batch_property(self, xs):
        s = OnlineStats()
        for x in xs:
            s.add(x)
        assert s.mean == pytest.approx(sum(xs) / len(xs), rel=1e-6, abs=1e-6)


class TestTrajectoryStats:
    def test_stats_for_fixes_speed(self):
        fixes = [fix(i * 10.0, i * 0.001, 40.0, speed=5.0 + i) for i in range(5)]
        states = stats_for_fixes(fixes)
        assert states["v1"].speed.count == 5
        assert states["v1"].speed.min == 5.0
        assert states["v1"].speed.max == 9.0

    def test_acceleration_derived(self):
        fixes = [fix(0.0, 0.0, 40.0, speed=5.0), fix(10.0, 0.001, 40.0, speed=7.0)]
        states = stats_for_fixes(fixes)
        assert states["v1"].acceleration.count == 1
        assert states["v1"].acceleration.mean == pytest.approx(0.2)

    def test_derives_speed_from_displacement(self):
        fixes = [fix(0.0, 0.0, 40.0), fix(10.0, 0.01, 40.0)]
        states = stats_for_fixes(fixes)
        assert states["v1"].speed.count >= 1

    def test_operator_annotates(self):
        out = update_trajectory_stats(TrajectoryStatsState(), fix(0.0, 0.0, 40.0, speed=5.0))
        assert "speed_stats" in out.annotations

    def test_per_entity_isolation(self):
        fixes = [fix(0.0, 0, 40, eid="a", speed=1.0), fix(0.0, 0, 40, eid="b", speed=9.0)]
        states = stats_for_fixes(fixes)
        assert states["a"].speed.max == 1.0
        assert states["b"].speed.min == 9.0


def region(rid, lon0, lat0, size=1.0, kind="natura2000"):
    poly = Polygon([(lon0, lat0), (lon0 + size, lat0), (lon0 + size, lat0 + size), (lon0, lat0 + size)])
    return Region(region_id=rid, name=rid, kind=kind, polygon=poly)


class TestRegionIndex:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RegionIndex([])

    def test_containing(self):
        idx = RegionIndex([region("r1", 0.0, 0.0), region("r2", 5.0, 5.0)])
        assert [r.region_id for r in idx.containing(0.5, 0.5)] == ["r1"]
        assert idx.containing(3.0, 3.0) == []

    def test_occupancy(self):
        idx = RegionIndex([region("r1", 0.0, 0.0), region("r2", 0.5, 0.5)])
        assert idx.occupancy(0.7, 0.7) == frozenset({"r1", "r2"})

    def test_candidates_superset_of_containing(self):
        regions = [region(f"r{i}", i * 0.3, 0.0) for i in range(10)]
        idx = RegionIndex(regions)
        contained = {r.region_id for r in idx.containing(1.0, 0.5)}
        candidates = {r.region_id for r in idx.candidate_regions(1.0, 0.5)}
        assert contained <= candidates


class TestAreaEventDetector:
    def make_detector(self):
        return AreaEventDetector(RegionIndex([region("r1", 0.0, 0.0)]))

    def test_entry_exit_sequence(self):
        det = self.make_detector()
        assert det.process(fix(0.0, -1.0, 0.5)) == []                  # outside: initial state
        events = det.process(fix(10.0, 0.5, 0.5))
        assert [(e.kind, e.region_id) for e in events] == [("entry", "r1")]
        events = det.process(fix(20.0, 2.0, 0.5))
        assert [(e.kind, e.region_id) for e in events] == [("exit", "r1")]

    def test_initial_containment_reported_as_entry(self):
        det = self.make_detector()
        events = det.process(fix(0.0, 0.5, 0.5))
        assert [(e.kind, e.region_id) for e in events] == [("entry", "r1")]

    def test_no_event_while_staying(self):
        det = self.make_detector()
        det.process(fix(0.0, 0.5, 0.5))
        assert det.process(fix(10.0, 0.6, 0.6)) == []

    def test_per_entity_state(self):
        det = self.make_detector()
        det.process(fix(0.0, 0.5, 0.5, eid="a"))
        events = det.process(fix(0.0, 0.5, 0.5, eid="b"))
        assert events and events[0].entity_id == "b"

    @given(
        st.lists(st.tuples(st.sampled_from(["a", "b"]), st.floats(-3.0, 8.0), st.floats(-3.0, 8.0)), max_size=40),
        st.lists(st.integers(0, 40), max_size=3),
    )
    def test_process_many_is_process_in_a_loop(self, moves, cuts):
        """The batch entry only *skips* calls that cannot change anything:
        same events, same per-entity state after every poll (wherever the
        stream is cut), fewer ``process`` calls."""
        regions = [region("r1", 0.0, 0.0), region("r2", 0.5, 0.5), region("r3", 5.0, 5.0)]
        one, many = (AreaEventDetector(RegionIndex(regions, cell_deg=0.5)) for _ in range(2))
        fixes = [fix(float(i), lon, lat, eid=eid) for i, (eid, lon, lat) in enumerate(moves)]
        calls = []
        process = many.process
        many.process = lambda f: calls.append(f) or process(f)
        for poll in chunks(fixes, cuts):
            assert many.process_many(poll, FixColumns.of(poll)) == [e for f in poll for e in one.process(f)]
            assert many._states == one._states and list(many._states) == list(one._states)
        skipped = [f for f in fixes if not any(f is c for c in calls)]
        assert all(not many.index.candidate_regions(f.lon, f.lat) for f in skipped)

    @pytest.mark.parametrize("bad", [{"lon": None}, {"lat": "5.0"}, {"lon": float("nan")}, {"lat": float("inf")}, {"lon": 3}])
    def test_process_many_falls_back_whole(self, bad):
        """Columns the screen cannot read: the batch does exactly what the
        per-fix loop does, its exception included."""
        fixes = [fix(0.0, 0.5, 0.5), PositionFix("v1", 1.0, **{"lon": 0.6, "lat": 0.6, **bad}), fix(2.0, 3.0, 3.0)]
        one, many = self.make_detector(), self.make_detector()

        def outcome(run):
            try:
                return run()
            except (TypeError, ValueError, OverflowError) as exc:
                return type(exc)

        want = outcome(lambda: [e for f in fixes for e in one.process(f)])
        assert outcome(lambda: many.process_many(fixes, FixColumns.of(fixes))) == want
        assert many._states == one._states

    def test_process_many_skips_open_water(self):
        det = AreaEventDetector(RegionIndex([region("r1", 0.0, 0.0), region("r2", 10.0, 10.0)]))
        far = [fix(float(i), 4.0 + 0.1 * i, 5.0) for i in range(5)]
        calls = []
        process = det.process
        det.process = lambda f: calls.append(f) or process(f)
        assert det.process_many(far, FixColumns.of(far)) == []
        assert calls == far[:1]          # the first fix initialises the entity
        assert det.process_many(far) == [] and calls == far[:1] + far   # no columns, no screen


class TestQuality:
    def test_clean_passes_good_stream(self):
        fixes = [fix(i * 10.0, i * 0.001, 40.0, speed=5.0) for i in range(10)]
        report = QualityReport()
        out = list(clean_stream(fixes, report=report))
        assert len(out) == 10
        assert report.dropped == 0

    def test_coordinate_range(self):
        report = QualityReport()
        out = list(clean_stream([fix(0.0, 500.0, 40.0)], report=report))
        assert out == []
        assert report.flagged[ISSUE_COORD_RANGE] == 1

    def test_implied_speed_outlier_dropped(self):
        # Second fix is 50 km away after 10 s: 5000 m/s.
        fixes = [fix(0.0, 0.0, 40.0), fix(10.0, 0.6, 40.0), fix(20.0, 0.002, 40.0)]
        report = QualityReport()
        out = list(clean_stream(fixes, report=report))
        assert [f.t for f in out] == [0.0, 20.0]
        assert report.flagged[ISSUE_IMPLIED_SPEED] == 1

    def test_outlier_does_not_poison_baseline(self):
        """After rejecting a teleport, the next good fix must pass."""
        fixes = [fix(0.0, 0.0, 40.0), fix(10.0, 5.0, 45.0), fix(20.0, 0.001, 40.0)]
        out = list(clean_stream(fixes))
        assert len(out) == 2

    def test_duplicate_and_regressing_time(self):
        fixes = [fix(10.0, 0.0, 40.0), fix(10.0, 0.0, 40.0), fix(5.0, 0.0, 40.0)]
        report = QualityReport()
        out = list(clean_stream(fixes, report=report))
        assert len(out) == 1
        assert report.flagged[ISSUE_DUPLICATE_TIME] == 1
        assert report.flagged[ISSUE_TIME_ORDER] == 1

    @pytest.mark.parametrize("bad_t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_dropped(self, bad_t):
        # First of its entity (no predecessor to compare with), mid-stream,
        # and alone: a NaN/inf t never passes.
        fixes = [fix(bad_t, 0.0, 40.0), fix(0.0, 0.0, 40.0), fix(bad_t, 0.0, 40.0), fix(10.0, 0.0, 40.0)]
        report = QualityReport()
        out = list(clean_stream(fixes, report=report))
        assert [f.t for f in out] == [0.0, 10.0]
        assert report.flagged == {ISSUE_NON_FINITE_TIME: 2}

    def test_non_finite_time_never_becomes_the_baseline(self):
        """A flagged fix is not ``last_fix``: the fixes after it are judged
        against the last *good* one, as if it had not been sent."""
        good = [fix(0.0, 0.0, 40.0), fix(10.0, 0.0, 40.0), fix(10.0, 0.0, 40.0), fix(5.0, 0.0, 40.0)]
        with_nan = good[:1] + [fix(float("nan"), 0.0, 40.0)] + good[1:]
        report = QualityReport()
        assert list(clean_stream(with_nan, report=report)) == list(clean_stream(good))
        assert report.flagged == {ISSUE_NON_FINITE_TIME: 1, ISSUE_DUPLICATE_TIME: 1, ISSUE_TIME_ORDER: 1}

    def test_reported_speed_limit(self):
        report = QualityReport()
        out = list(clean_stream([fix(0.0, 0.0, 40.0, speed=100.0)], report=report))
        assert out == []
        assert report.flagged[ISSUE_REPORTED_SPEED] == 1

    def test_aviation_config_allows_fast(self):
        cfg = QualityConfig(max_implied_speed_ms=350.0, max_reported_speed_ms=350.0)
        out = list(clean_stream([fix(0.0, 0.0, 40.0, speed=250.0)], config=cfg))
        assert len(out) == 1

    def test_drop_rate(self):
        report = QualityReport()
        list(clean_stream([fix(0.0, 500.0, 40.0), fix(1.0, 0.0, 40.0)], report=report))
        assert report.drop_rate() == pytest.approx(0.5)

    def test_per_entity_sequential_checks(self):
        """Time-order checks apply per entity, not across the merged stream."""
        fixes = [fix(100.0, 0.0, 40.0, eid="a"), fix(50.0, 0.0, 40.0, eid="b")]
        out = list(clean_stream(fixes))
        assert len(out) == 2

def assert_clean_batch_is_clean_stream(fixes, columns=True):
    want_report, got_report = QualityReport(), QualityReport()
    want = list(clean_stream(fixes, QUALITY, want_report))
    got, rows = clean_batch(fixes, QUALITY, got_report, FixColumns.of(fixes) if columns else None)
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
    assert [fixes[i] for i in rows.tolist()] == got
    assert repr(got_report) == repr(want_report)      # flagged: counts and key order


class TestCleanBatch:
    """``clean_batch`` is ``list(clean_stream)``: the column screen may only
    clear a fix, and what it cannot clear is checked by ``check_fix``."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(REPORT, max_size=120), st.sampled_from(CONFIGS), st.booleans())
    def test_planted_streams(self, reports, cfg, columns):
        assert_clean_batch_is_clean_stream(planted_stream(reports, cfg), columns)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["cruise", "teleport", "relocate", "implied", "dt_zero"]), max_size=60), st.integers(0, 2))
    def test_dropped_predecessor_chains(self, moves, side):
        """One entity: every drop leaves the baseline where it was."""
        assert_clean_batch_is_clean_stream(planted_stream([("mid", move, side) for move in moves]))

    def test_single_fix_and_empty_polls(self):
        for fixes in ([], [fix(0.0, 1.0, 1.0)], [fix(0.0, 500.0, 1.0)], [fix(float("nan"), 1.0, 1.0)]):
            assert_clean_batch_is_clean_stream(fixes)

    def test_the_same_fix_twice(self):
        one = fix(0.0, 1.0, 1.0, speed=3.0)
        assert_clean_batch_is_clean_stream([one, one, fix(5.0, 1.0, 1.0), one])

    @pytest.mark.parametrize("field", ["t", "lon", "lat", "speed"])
    @pytest.mark.parametrize("value", [None, "40.0", 7, Decimal(7)])
    def test_unreadable_columns_take_the_per_fix_path(self, field, value):
        """A field that is no float: whatever ``clean_stream`` raises or
        flags, the batch raises or flags — never a numpy error."""
        odd = PositionFix("v1", **{"t": 10.0, "lon": 1.0, "lat": 40.0, "speed": 3.0, field: value})
        fixes = [fix(0.0, 1.0, 40.0), odd, fix(20.0, 1.0, 40.0)]
        try:
            list(clean_stream(fixes, QUALITY))
        except TypeError as exc:
            with pytest.raises(TypeError) as raised:
                clean_batch(fixes, QUALITY, None, FixColumns.of(fixes))
            assert str(raised.value) == str(exc)
        else:
            assert_clean_batch_is_clean_stream(fixes)
