"""Tests for collision risk (CPA/COLREG) and flight-plan adherence."""

import math

import pytest

from repro.analytics import (
    CROSSING_GIVE_WAY,
    CROSSING_STAND_ON,
    CollisionRiskAssessor,
    HEAD_ON,
    OVERTAKING,
    assess_adherence,
    assess_fleet,
    classify_encounter,
    closest_point_of_approach,
)
from repro.datasources import AIRPORTS, FlightConfig, FlightPlan, FlightSimulator, make_route
from repro.datasources.registry import generate_aircraft_registry
from repro.datasources.weather import WeatherField
from repro.geo import PositionFix, Trajectory, destination_point


def vessel(eid, lon, lat, speed_ms, heading, t=0.0):
    return PositionFix(eid, t, lon, lat, speed=speed_ms, heading=heading)


class TestCPA:
    def test_head_on_collision_course(self):
        # Two vessels 10 km apart, closing head-on at 5 m/s each.
        a = vessel("a", 0.0, 40.0, 5.0, 90.0)
        blon, blat = destination_point(0.0, 40.0, 90.0, 10_000.0)
        b = vessel("b", blon, blat, 5.0, 270.0)
        cpa = closest_point_of_approach(a, b)
        assert cpa.converging
        assert cpa.tcpa_s == pytest.approx(1000.0, rel=0.05)   # 10 km / 10 m/s
        assert cpa.cpa_m < 200.0

    def test_parallel_courses_never_close(self):
        a = vessel("a", 0.0, 40.0, 5.0, 0.0)
        b = vessel("b", 0.05, 40.0, 5.0, 0.0)   # ~4.2 km east, same velocity
        cpa = closest_point_of_approach(a, b)
        assert not cpa.converging
        assert cpa.cpa_m == pytest.approx(cpa.current_distance_m)

    def test_diverging_cpa_is_now(self):
        a = vessel("a", 0.0, 40.0, 5.0, 270.0)
        b = vessel("b", 0.05, 40.0, 5.0, 90.0)   # sailing apart
        cpa = closest_point_of_approach(a, b)
        assert cpa.tcpa_s == 0.0

    def test_stationary_pair(self):
        a = vessel("a", 0.0, 40.0, 0.0, 0.0)
        b = vessel("b", 0.01, 40.0, 0.0, 0.0)
        cpa = closest_point_of_approach(a, b)
        assert cpa.cpa_m == pytest.approx(cpa.current_distance_m)


class TestEncounterClassification:
    def test_head_on(self):
        a = vessel("a", 0.0, 40.0, 5.0, 0.0)                         # northbound
        blon, blat = destination_point(0.0, 40.0, 0.0, 5000.0)       # dead ahead
        b = vessel("b", blon, blat, 5.0, 180.0)                      # southbound
        assert classify_encounter(a, b) == HEAD_ON

    def test_crossing_give_way(self):
        a = vessel("a", 0.0, 40.0, 5.0, 0.0)
        blon, blat = destination_point(0.0, 40.0, 90.0, 5000.0)      # on our starboard
        b = vessel("b", blon, blat, 5.0, 270.0)                      # crossing westbound
        assert classify_encounter(a, b) == CROSSING_GIVE_WAY

    def test_crossing_stand_on(self):
        a = vessel("a", 0.0, 40.0, 5.0, 0.0)
        blon, blat = destination_point(0.0, 40.0, 270.0, 5000.0)     # on our port
        b = vessel("b", blon, blat, 5.0, 90.0)
        assert classify_encounter(a, b) == CROSSING_STAND_ON

    def test_overtaking(self):
        a = vessel("a", 0.0, 40.0, 8.0, 0.0)                         # fast, northbound
        blon, blat = destination_point(0.0, 40.0, 0.0, 3000.0)       # slow one ahead
        b = vessel("b", blon, blat, 2.0, 0.0)
        assert classify_encounter(a, b) == OVERTAKING


class TestCollisionRiskAssessor:
    def test_warning_on_collision_course(self):
        assessor = CollisionRiskAssessor(cpa_threshold_m=1852.0, tcpa_horizon_s=1800.0)
        a = vessel("a", 0.0, 40.0, 5.0, 90.0)
        blon, blat = destination_point(0.0, 40.0, 90.0, 8000.0)
        b = vessel("b", blon, blat, 5.0, 270.0)
        warning = assessor.assess_pair(a, b)
        assert warning is not None
        assert warning.encounter == HEAD_ON
        assert warning.give_way_required

    def test_no_warning_when_safe(self):
        assessor = CollisionRiskAssessor()
        a = vessel("a", 0.0, 40.0, 5.0, 0.0)
        b = vessel("b", 1.0, 40.0, 5.0, 0.0)   # 85 km away, parallel
        assert assessor.assess_pair(a, b) is None

    def test_fleet_screening(self):
        assessor = CollisionRiskAssessor()
        a = vessel("a", 0.0, 40.0, 5.0, 90.0)
        blon, blat = destination_point(0.0, 40.0, 90.0, 8000.0)
        fixes = [a, vessel("b", blon, blat, 5.0, 270.0), vessel("c", 2.0, 42.0, 5.0, 0.0)]
        warnings = assessor.assess_fleet(fixes)
        assert len(warnings) == 1
        assert {warnings[0].own_id, warnings[0].other_id} == {"a", "b"}

    def test_validation(self):
        with pytest.raises(ValueError):
            CollisionRiskAssessor(cpa_threshold_m=0.0)


@pytest.fixture(scope="module")
def flight_pair():
    weather = WeatherField(seed=91)
    aircraft = generate_aircraft_registry(4, seed=92)[0]
    dep, arr = AIRPORTS["LEBL"], AIRPORTS["LEMD"]
    plan = FlightPlan("AD0001", "AD0001", dep, arr,
                      make_route(dep, arr, variant=0, cruise_fl=aircraft.cruise_fl, seed=9),
                      aircraft.cruise_fl, 0.0)
    nominal = FlightSimulator(weather, FlightConfig(sample_period_s=16.0), seed=93).fly(plan, aircraft, seed=1)
    displaced = FlightSimulator(
        weather, FlightConfig(sample_period_s=16.0, runway_offset_m=12_000.0, wind_deviation_gain=450.0),
        seed=93,
    ).fly(plan, aircraft, seed=1)
    return plan, nominal.trajectory, displaced.trajectory


class TestAdherence:
    def test_nominal_flight_adherent(self, flight_pair):
        plan, nominal, _ = flight_pair
        report = assess_adherence(plan, nominal)
        assert report.mean_cross_track_m < 3000.0
        assert 0.0 <= report.excursion_fraction <= 1.0

    def test_displaced_flight_worse(self, flight_pair):
        plan, nominal, displaced = flight_pair
        good = assess_adherence(plan, nominal)
        bad = assess_adherence(plan, displaced)
        assert bad.max_cross_track_m > good.max_cross_track_m
        assert bad.p95_cross_track_m >= good.p95_cross_track_m

    def test_fleet_summary(self, flight_pair):
        plan, nominal, displaced = flight_pair
        fleet = assess_fleet([(plan, nominal), (plan, displaced)])
        assert len(fleet.reports) == 2
        assert not math.isnan(fleet.mean_cross_track_m())
        worst = fleet.worst(1)[0]
        assert worst.p95_cross_track_m == max(r.p95_cross_track_m for r in fleet.reports)

    def test_validation(self, flight_pair):
        plan, nominal, _ = flight_pair
        with pytest.raises(ValueError):
            assess_adherence(plan, Trajectory(nominal.entity_id, list(nominal)[:1]))
