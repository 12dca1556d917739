"""Tests for the Synopses Generator (critical-point detection, reconstruction)."""

import math
import random
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import FixColumns, PositionFix, Trajectory, destination_point
from repro.synopses import (
    AVIATION_CONFIG,
    CriticalPoint,
    SynopsesConfig,
    SynopsesGenerator,
    reconstruction_error,
    run_synopses,
    synopsis_trajectory,
)


from tests.plants import CONFIGS, ENTITIES, MOVES, REPORT, chunks, planted_stream


def make_fix(t, lon, lat, alt=0.0, speed=None, heading=None, vrate=None, eid="v1"):
    return PositionFix(entity_id=eid, t=t, lon=lon, lat=lat, alt=alt, speed=speed, heading=heading, vrate=vrate)


def straight_cruise(n=100, dt=10.0, speed=8.0, heading=90.0, lat=40.0, eid="v1", t0=0.0, lon0=0.0):
    """A perfectly straight, constant-speed track heading east."""
    fixes = []
    lon, cur_lat = lon0, lat
    for i in range(n):
        fixes.append(make_fix(t0 + i * dt, lon, cur_lat, speed=speed, heading=heading, eid=eid))
        lon, cur_lat = destination_point(lon, cur_lat, heading, speed * dt)
    return fixes


def kinds(points):
    return [p.kind for p in points]


class TestBoundaries:
    def test_start_and_end(self):
        gen = SynopsesGenerator()
        out = list(gen.process_stream(straight_cruise(5)))
        assert kinds(out)[0] == "start"
        out += gen.flush()
        assert kinds(out)[-1] == "end"

    def test_straight_track_compresses_hard(self):
        gen = SynopsesGenerator()
        out = list(gen.process_stream(straight_cruise(500))) + gen.flush()
        # Only start + end should survive a perfectly straight constant cruise.
        assert len(out) <= 4
        assert gen.compression_ratio() > 0.98


class TestStops:
    def test_stop_start_and_end(self):
        cfg = SynopsesConfig(stop_min_duration_s=30.0)
        fixes = straight_cruise(10, dt=10.0)
        t0 = fixes[-1].t
        lon, lat = fixes[-1].lon, fixes[-1].lat
        stopped = [make_fix(t0 + (i + 1) * 10.0, lon, lat, speed=0.1, heading=90.0) for i in range(10)]
        moving = [make_fix(t0 + 110.0 + i * 10.0, lon + i * 0.001, lat, speed=8.0, heading=90.0) for i in range(5)]
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(fixes + stopped + moving)) + gen.flush()
        ks = kinds(out)
        assert "stop_start" in ks and "stop_end" in ks
        assert ks.index("stop_start") < ks.index("stop_end")

    def test_stop_start_anchored_at_first_slow_fix(self):
        cfg = SynopsesConfig(stop_min_duration_s=30.0)
        stopped = [make_fix(i * 10.0, 1.0, 40.0, speed=0.0) for i in range(10)]
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(stopped))
        stop_pts = [p for p in out if p.kind == "stop_start"]
        # The first fix is the trajectory 'start'; stop tracking engages at the
        # second fix, so the anchor is the first below-threshold fix after it.
        assert stop_pts and stop_pts[0].t == 10.0

    def test_brief_dip_below_threshold_not_a_stop(self):
        cfg = SynopsesConfig(stop_min_duration_s=120.0)
        fixes = straight_cruise(5)
        t0 = fixes[-1].t
        dip = [make_fix(t0 + 10.0, fixes[-1].lon, fixes[-1].lat, speed=0.1, heading=90.0)]
        resume = straight_cruise(5, t0=t0 + 20.0, lon0=fixes[-1].lon)
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(fixes + dip + resume))
        assert "stop_start" not in kinds(out)


class TestSlowMotion:
    def test_slow_start_end(self):
        cfg = SynopsesConfig(slow_min_duration_s=60.0)
        slow = [make_fix(i * 30.0, i * 0.0003, 40.0, speed=1.5, heading=90.0) for i in range(10)]
        fast = [make_fix(300.0 + i * 10.0, 0.01 + i * 0.001, 40.0, speed=8.0, heading=90.0) for i in range(5)]
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(slow + fast))
        ks = kinds(out)
        assert "slow_start" in ks and "slow_end" in ks


class TestTurns:
    def test_sharp_turn_detected(self):
        leg1 = straight_cruise(30, heading=90.0)
        last = leg1[-1]
        leg2 = []
        lon, lat = last.lon, last.lat
        for i in range(30):
            lon, lat = destination_point(lon, lat, 180.0, 80.0)
            leg2.append(make_fix(last.t + (i + 1) * 10.0, lon, lat, speed=8.0, heading=180.0))
        gen = SynopsesGenerator()
        out = list(gen.process_stream(leg1 + leg2))
        assert "turn" in kinds(out)

    def test_no_turn_on_straight(self):
        gen = SynopsesGenerator()
        out = list(gen.process_stream(straight_cruise(100)))
        assert "turn" not in kinds(out)

    def test_turn_rearm_limits_repeats(self):
        cfg = SynopsesConfig(min_reemit_s=1e9)
        # Continuous circling: heading rotates steadily.
        fixes = []
        lon, lat = 0.0, 40.0
        for i in range(100):
            hd = (i * 12.0) % 360.0
            lon, lat = destination_point(lon, lat, hd, 80.0)
            fixes.append(make_fix(i * 10.0, lon, lat, speed=8.0, heading=hd))
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(fixes))
        assert kinds(out).count("turn") <= 1


class TestSpeedChange:
    def test_acceleration_detected(self):
        slow_leg = straight_cruise(30, speed=5.0)
        last = slow_leg[-1]
        fast_leg = []
        lon, lat = last.lon, last.lat
        for i in range(30):
            lon, lat = destination_point(lon, lat, 90.0, 150.0)
            fast_leg.append(make_fix(last.t + (i + 1) * 10.0, lon, lat, speed=15.0, heading=90.0))
        gen = SynopsesGenerator()
        out = list(gen.process_stream(slow_leg + fast_leg))
        assert "speed_change" in kinds(out)

    def test_constant_speed_silent(self):
        gen = SynopsesGenerator()
        out = list(gen.process_stream(straight_cruise(200)))
        assert "speed_change" not in kinds(out)


class TestGaps:
    def test_gap_detected(self):
        fixes = straight_cruise(5)
        last = fixes[-1]
        resumed = straight_cruise(5, t0=last.t + 1200.0, lon0=last.lon + 0.05)
        gen = SynopsesGenerator()
        out = list(gen.process_stream(fixes + resumed))
        ks = kinds(out)
        assert "gap_start" in ks and "gap_end" in ks
        gap = next(p for p in out if p.kind == "gap_end")
        assert gap.detail["gap_s"] == pytest.approx(1200.0 + 10.0, abs=20.0)

    def test_no_gap_for_regular_reports(self):
        gen = SynopsesGenerator()
        out = list(gen.process_stream(straight_cruise(50)))
        assert "gap_start" not in kinds(out)


class TestAviationEvents:
    def test_takeoff_landing(self):
        cfg = AVIATION_CONFIG
        ground1 = [make_fix(i * 8.0, 2.0 + i * 0.0005, 41.3, alt=4.0, speed=40.0, heading=90.0, eid="a1") for i in range(3)]
        climb = [make_fix(24.0 + i * 8.0, 2.01 + i * 0.005, 41.3, alt=700.0 + i * 150.0, speed=120.0, heading=90.0, vrate=15.0, eid="a1") for i in range(10)]
        descend = [make_fix(104.0 + i * 8.0, 2.08 + i * 0.005, 41.3, alt=max(4.0, 2000.0 - i * 500.0), speed=90.0, heading=90.0, vrate=-10.0, eid="a1") for i in range(6)]
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(ground1 + climb + descend))
        ks = kinds(out)
        assert "takeoff" in ks
        assert "landing" in ks
        assert "altitude_change" in ks

    def test_takeoff_is_last_ground_point(self):
        cfg = AVIATION_CONFIG
        ground = [make_fix(0.0, 2.0, 41.3, alt=4.0, speed=40.0, eid="a1")]
        air = [make_fix(8.0, 2.01, 41.3, alt=900.0, speed=120.0, vrate=20.0, eid="a1")]
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(ground + air))
        tk = next(p for p in out if p.kind == "takeoff")
        assert tk.t == 0.0  # anchored at the last on-ground fix

    def test_landing_is_first_ground_point(self):
        cfg = AVIATION_CONFIG
        air = [make_fix(0.0, 2.0, 41.3, alt=900.0, speed=120.0, eid="a1")]
        ground = [make_fix(8.0, 2.01, 41.3, alt=4.0, speed=60.0, vrate=-5.0, eid="a1")]
        gen = SynopsesGenerator(cfg)
        out = list(gen.process_stream(air + ground))
        ld = next(p for p in out if p.kind == "landing")
        assert ld.t == 8.0


class TestNoiseFilter:
    def test_teleport_dropped(self):
        fixes = straight_cruise(5)
        outlier = make_fix(fixes[-1].t + 10.0, fixes[-1].lon + 5.0, fixes[-1].lat + 5.0, speed=8.0, heading=90.0)
        cont = straight_cruise(5, t0=fixes[-1].t + 20.0, lon0=fixes[-1].lon)
        gen = SynopsesGenerator()
        list(gen.process_stream(fixes + [outlier] + cont))
        assert gen.noise_dropped >= 1

    def test_duplicate_time_ignored(self):
        f = make_fix(0.0, 0.0, 40.0, speed=5.0)
        gen = SynopsesGenerator()
        gen.process(f)
        out = gen.process(make_fix(0.0, 0.001, 40.0, speed=5.0))
        assert out == []

    @pytest.mark.parametrize("at", [0, 10])
    @pytest.mark.parametrize("bad_t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_dropped_as_noise(self, bad_t, at):
        """A NaN ``t`` used to enter the course window and stop its eviction
        (2 001 samples after 2 000 more fixes instead of 13); a ``+inf`` one
        froze the entity, every later fix being "earlier"."""
        fixes = straight_cruise(2011)
        gen, without = SynopsesGenerator(), SynopsesGenerator()
        bad = replace(fixes[at], t=bad_t)
        got = [cp for f in [*fixes[:at], bad, *fixes[at:]] for cp in gen.process(f)]
        want = [cp for f in fixes for cp in without.process(f)]
        assert canonical(got) == canonical(want)
        assert gen.noise_dropped == 1
        state, clean = gen._states["v1"], without._states["v1"]
        assert state.last_fix is fixes[-1] and state.window == clean.window
        assert len(state.window) == 13


class TestReconstruction:
    def test_straight_track_low_error(self):
        fixes = straight_cruise(200)
        result = run_synopses(fixes)
        assert result.compression_ratio > 0.9
        err = result.per_entity_errors["v1"]
        assert err.rmse_m < 100.0

    def test_synopsis_trajectory_dedupes(self):
        f = make_fix(0.0, 0.0, 40.0)
        pts = [CriticalPoint(f, "start"), CriticalPoint(f, "stop_start")]
        tr = synopsis_trajectory(pts, "v1")
        assert len(tr) == 1

    def test_reconstruction_error_empty_synopsis(self):
        with pytest.raises(ValueError):
            reconstruction_error(Trajectory("v1", [make_fix(0, 0, 0)]), Trajectory("v1", []))

    def test_run_synopses_multi_entity(self):
        a = straight_cruise(50, eid="a")
        b = straight_cruise(50, eid="b", lat=42.0)
        result = run_synopses(a + b)
        assert set(result.per_entity_errors) == {"a", "b"}

    def test_compression_increases_with_rate(self):
        """Paper: 80% at moderate rates, up to 99% for very frequent reports."""
        slow_rate = run_synopses(straight_cruise(60, dt=60.0))
        fast_rate = run_synopses(straight_cruise(3600, dt=1.0, speed=8.0))
        assert fast_rate.compression_ratio > slow_rate.compression_ratio
        assert fast_rate.compression_ratio > 0.99


class TestConfigValidation:
    def test_bad_speeds(self):
        with pytest.raises(ValueError):
            SynopsesConfig(stop_speed_ms=5.0, slow_speed_ms=1.0)

    def test_bad_turn_threshold(self):
        with pytest.raises(ValueError):
            SynopsesConfig(turn_threshold_deg=0.0)

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            SynopsesConfig(gap_threshold_s=-1.0)


def canonical(points):
    """Critical points as comparable text, ``detail`` (which ``==`` skips) included."""
    return [(repr(cp.fix), cp.kind, repr(cp.detail)) for cp in points]


def assert_process_many_is_process(polls, cfg, columns=True):
    """Poll by poll: the points, the per-entity state (window deque,
    ``last_fix``, ``seen``, ... and the order entities were first seen in)
    and the generator's counters of a ``process`` loop."""
    one, many = SynopsesGenerator(cfg), SynopsesGenerator(cfg)
    for poll in polls:
        want = [cp for f in poll for cp in one.process(f)]
        got = many.process_many(poll, FixColumns.of(poll) if columns else None)
        assert canonical(got) == canonical(want)
        assert all(a.fix is b.fix for a, b in zip(got, want))
        assert repr(many._states) == repr(one._states)      # repr: value, type and key order
        assert all(many._states[e].last_fix is one._states[e].last_fix for e in one._states)
        assert (many.points_in, many.points_out, many.noise_dropped) == (one.points_in, one.points_out, one.noise_dropped)
    assert canonical(many.flush()) == canonical(one.flush())
    return many


class TestProcessMany:
    """``process_many`` is a ``process`` loop: its column screen may only
    prove that nothing happens at a fix, everything else is refined."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(REPORT, max_size=150), st.lists(st.integers(0, 150), max_size=4),
        st.sampled_from(CONFIGS), st.booleans(),
    )
    def test_planted_streams_chunked_anywhere(self, reports, cuts, cfg, columns):
        assert_process_many_is_process(chunks(planted_stream(reports, cfg), cuts), cfg, columns)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(sorted(ENTITIES)), st.lists(st.tuples(st.sampled_from(sorted(MOVES)), st.integers(0, 2)), max_size=12),
        st.integers(1, 40), st.sampled_from(CONFIGS),
    )
    def test_plants_in_a_quiet_window(self, eid, plants, every, cfg):
        """One entity, long cruises between the plants: the rows around a
        plant are screened against a full carried window."""
        reports = [(eid, "cruise", 1)] * 20
        for move, side in plants:
            reports += [(eid, move, side), *[(eid, "cruise", 1)] * every]
        stream = planted_stream(reports, cfg)
        assert_process_many_is_process(chunks(stream, list(range(0, len(stream), 17))), cfg)

    def test_a_mean_summed_in_another_order_is_inside_the_slack_band(self):
        """The screen sums a course window newest first, ``_step`` oldest
        first. Here the two means differ in the last digits and the
        threshold sits between the two ratios: ``_step`` emits, a screen
        trusting its own sum to the last ulp would clear the fix. Fails
        with ``SCREEN_SLACK = 0``."""
        rng = random.Random(5)
        while True:
            speeds = [rng.uniform(5.0, 12.0) for _ in range(12)]
            oldest_first, newest_first = sum(speeds) / 12, sum(reversed(speeds)) / 12
            now = 1.3 * oldest_first
            ratio, screen_ratio = abs(now - oldest_first) / oldest_first, abs(now - newest_first) / newest_first
            threshold = math.nextafter(screen_ratio, math.inf)
            if screen_ratio < threshold < ratio:
                break
        cfg = SynopsesConfig(speed_change_ratio=threshold, course_window_s=115.0, min_reemit_s=0.0)
        cruise = straight_cruise(14)
        fixes = [replace(f, speed=v) for f, v in zip(cruise, [8.0, *speeds, now])]
        per_fix = SynopsesGenerator(cfg)
        assert kinds([per_fix.process(f) for f in fixes][-1]) == ["speed_change"]
        assert_process_many_is_process([fixes[:1], fixes[1:]], cfg)

    def test_most_of_a_cruise_is_cleared_without_a_call(self):
        fixes = [f for eid in ("a", "b") for f in straight_cruise(60, eid=eid)]
        many = SynopsesGenerator()
        calls = []
        process = many.process
        many.process = lambda fix: calls.append(fix) or process(fix)
        assert kinds(many.process_many(fixes, FixColumns.of(fixes))) == ["start", "start"]
        assert len(calls) == 2 and many.points_in == 120

    def test_single_fix_single_entity_and_empty_polls(self):
        cruise = straight_cruise(30)
        for polls in ([[]], [cruise[:1]], [[f] for f in cruise], [cruise[:1], cruise[1:]], [[], cruise, []]):
            assert_process_many_is_process(polls, SynopsesConfig())

    @pytest.mark.parametrize("field", ["t", "lon", "lat", "alt", "speed", "heading", "vrate"])
    @pytest.mark.parametrize("value", [None, "7.0", 7, Decimal(7), float("nan"), float("inf")])
    def test_unreadable_columns_take_the_per_fix_path(self, field, value):
        """Whatever the per-fix loop raises or returns for a field that is
        no finite float, the batch raises or returns — never a numpy
        error, never a warning."""
        cruise = straight_cruise(12, heading=90.0)
        odd = PositionFix("v1", **{"t": 55.0, "lon": 0.004, "lat": 40.0, "speed": 8.0, "heading": 90.0, field: value})
        polls = [cruise[:6], [*cruise[6:9], odd, *cruise[9:]]]
        try:
            assert_process_many_is_process(polls, SynopsesConfig(), columns=False)
        except TypeError as exc:
            with pytest.raises(TypeError) as raised:
                assert_process_many_is_process(polls, SynopsesConfig())
            assert str(raised.value) == str(exc)
        else:
            assert_process_many_is_process(polls, SynopsesConfig())
