"""Tests for the synthetic data sources."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasources import AIRPORTS, AISConfig, AISSimulator, FlightDatasetConfig, FlightPlan, WeatherField, WeatherStationNetwork, SeaStateSource, fishing_vessel_stream, generate_aircraft_registry, generate_flight_dataset, generate_ports, generate_regions, generate_vessel_registry, make_route, measure_ais, measure_weather_obs
from repro.datasources.regions import DEFAULT_BBOX
from repro.geo import group_fixes_by_entity


class TestRegistries:
    def test_vessel_registry_size_and_determinism(self):
        a = generate_vessel_registry(100, seed=7)
        b = generate_vessel_registry(100, seed=7)
        assert len(a) == 100
        assert a == b

    def test_vessel_registry_seed_changes_content(self):
        a = generate_vessel_registry(50, seed=7)
        b = generate_vessel_registry(50, seed=8)
        assert a != b

    def test_vessel_registry_unique_mmsi(self):
        rows = generate_vessel_registry(500, seed=1)
        assert len({r.mmsi for r in rows}) == 500

    def test_vessel_types_valid(self):
        rows = generate_vessel_registry(200, seed=1)
        assert all(r.vessel_type in ("fishing", "cargo", "tanker", "ferry", "tug", "pleasure") for r in rows)

    def test_fishing_flag(self):
        rows = generate_vessel_registry(500, seed=1)
        assert any(r.is_fishing for r in rows)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_vessel_registry(-1)

    def test_aircraft_registry(self):
        rows = generate_aircraft_registry(50, seed=3)
        assert len(rows) == 50
        assert all(r.cruise_speed_ms > 100 for r in rows)
        assert all(r.size_class in ("light", "medium", "heavy") for r in rows)


class TestRegions:
    def test_count_and_determinism(self):
        a = generate_regions(200, seed=42)
        b = generate_regions(200, seed=42)
        assert len(a) == 200
        assert [r.region_id for r in a] == [r.region_id for r in b]

    def test_all_inside_expanded_bbox(self):
        regions = generate_regions(100, seed=1)
        big = DEFAULT_BBOX.expanded(4.0)
        for r in regions:
            assert big.intersects(r.bbox)

    def test_kind_mixture(self):
        kinds = Counter(r.kind for r in generate_regions(1000, seed=2))
        assert kinds["natura2000"] > kinds["fishing_zone"] > 0

    def test_clustered_not_uniform(self):
        """Coastal clustering: region centroids should be spatially concentrated."""
        regions = generate_regions(800, seed=3)
        cells = set()
        for r in regions:
            cx, cy = r.polygon.centroid()
            cells.add((int(cx), int(cy)))
        total_cells = (DEFAULT_BBOX.width) * (DEFAULT_BBOX.height)
        assert len(cells) < 0.65 * total_cells  # occupies a minority of 1-degree cells


class TestPorts:
    def test_count(self):
        assert len(generate_ports(100, seed=17)) == 100

    def test_unique_ids(self):
        ports = generate_ports(300, seed=17)
        assert len({p.port_id for p in ports}) == 300

    def test_within_bbox(self):
        for p in generate_ports(100, seed=17):
            assert DEFAULT_BBOX.contains(p.location.lon, p.location.lat)


class TestWeather:
    def test_deterministic(self):
        a = WeatherField(seed=99).sample(5.0, 40.0, 1000.0)
        b = WeatherField(seed=99).sample(5.0, 40.0, 1000.0)
        assert a == b

    def test_spatial_smoothness(self):
        f = WeatherField(seed=99)
        s1 = f.sample(5.0, 40.0, 0.0)
        s2 = f.sample(5.01, 40.0, 0.0)
        assert abs(s1.wind_u_ms - s2.wind_u_ms) < 1.0

    def test_temporal_variation(self):
        f = WeatherField(seed=99)
        winds = {round(f.sample(5.0, 40.0, t * 3600.0).wind_u_ms, 3) for t in range(24)}
        assert len(winds) > 5  # field actually evolves

    def test_ranges(self):
        f = WeatherField(seed=1)
        s = f.sample(10.0, 38.0, 0.0)
        assert s.visibility_km > 0
        assert s.wave_height_m >= 0

    @given(
        points=st.lists(
            st.tuples(st.floats(-40.0, 60.0), st.floats(0.0, 80.0), st.floats(0.0, 5 * 86_400.0)),
            min_size=1,
            max_size=30,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_covariates_are_sample_bit_for_bit(self, points, seed):
        # Holds wherever numpy's sin is libm's: on a build where it is not,
        # this fails here rather than deep inside the per-fix layer oracle.
        f = WeatherField(seed=seed)
        lons, lats, ts = np.array(points).T
        want = [f.sample(lon, lat, t) for lon, lat, t in points]
        got = f.wind_wave_batch(lons, lats, ts)
        for values, name in zip(got, ("wind_u_ms", "wind_v_ms", "wave_height_m")):
            assert all(type(v) is float for v in values)
            assert [v.hex() for v in values] == [getattr(s, name).hex() for s in want]

    def test_station_network_rate(self):
        net = WeatherStationNetwork(WeatherField(seed=1))
        obs = list(net.observations(0.0, 3 * 3600.0))
        assert len(obs) == 16 * 3

    def test_sea_state_file_cadence(self):
        src = SeaStateSource(WeatherField(seed=1), resolution_deg=2.0)
        files = list(src.forecasts(0.0, 24 * 3600.0))
        assert len(files) == 8  # one per 3 hours
        assert files[0].cell_count() > 0


class TestAISSimulator:
    def test_time_ordered_stream(self):
        sim = AISSimulator(n_vessels=10, seed=1)
        ts = [f.t for f in sim.fixes(0.0, 600.0)]
        assert ts == sorted(ts)
        assert ts, "no fixes produced"

    def test_deterministic(self):
        def run():
            sim = AISSimulator(n_vessels=5, seed=4)
            return [(f.entity_id, round(f.t, 3), round(f.lon, 6)) for f in sim.fixes(0.0, 600.0)]

        assert run() == run()

    def test_all_vessels_report(self):
        sim = AISSimulator(n_vessels=8, seed=2, config=AISConfig(gap_probability_per_hour=0.0))
        groups = group_fixes_by_entity(sim.fixes(0.0, 1200.0))
        assert len(groups) == 8

    def test_report_rate_roughly_matches_period(self):
        cfg = AISConfig(report_period_s=10.0, gap_probability_per_hour=0.0)
        sim = AISSimulator(n_vessels=5, seed=2, config=cfg)
        fixes = list(sim.fixes(0.0, 1000.0))
        # 5 vessels x ~100 reports, minus docked vessels reporting slowly.
        assert len(fixes) > 150

    def test_speeds_physical(self):
        sim = AISSimulator(n_vessels=10, seed=3)
        for f in sim.fixes(0.0, 600.0):
            assert 0.0 <= f.speed < 20.0  # < ~39 knots
            assert 0.0 <= f.heading < 360.0

    def test_positions_inside_bbox(self):
        sim = AISSimulator(n_vessels=10, seed=5, config=AISConfig(outlier_probability=0.0))
        box = DEFAULT_BBOX.expanded(0.5)
        for f in sim.fixes(0.0, 3600.0):
            assert box.contains(f.lon, f.lat)

    def test_gap_injection(self):
        cfg = AISConfig(gap_probability_per_hour=50.0, gap_duration_s=(300.0, 600.0))
        sim = AISSimulator(n_vessels=5, seed=6, config=cfg)
        groups = group_fixes_by_entity(sim.fixes(0.0, 4 * 3600.0))
        max_gap = 0.0
        for tr in groups.values():
            for a, b in zip(tr, list(tr)[1:]):
                max_gap = max(max_gap, b.t - a.t)
        assert max_gap > 200.0  # silence windows visible in the stream

    def test_outlier_annotation(self):
        cfg = AISConfig(outlier_probability=0.2)
        sim = AISSimulator(n_vessels=5, seed=7, config=cfg)
        fixes = list(sim.fixes(0.0, 1800.0))
        assert any(f.annotations.get("outlier") for f in fixes)

    def test_fishing_vessel_stream_has_reversals(self):
        fixes = fishing_vessel_stream(seed=3, duration_s=6 * 3600.0)
        assert len(fixes) > 500
        regimes = {f.annotations["regime"] for f in fixes}
        assert "fishing" in regimes


class TestAviation:
    def test_make_route_variants_differ(self):
        dep, arr = AIRPORTS["LEBL"], AIRPORTS["LEMD"]
        r0 = make_route(dep, arr, variant=0, seed=1)
        r1 = make_route(dep, arr, variant=2, seed=1)
        mid0, mid1 = r0[len(r0) // 2], r1[len(r1) // 2]
        assert abs(mid0.lat - mid1.lat) + abs(mid0.lon - mid1.lon) > 0.05

    def test_planned_trajectory_reaches_arrival(self):
        dep, arr = AIRPORTS["LEBL"], AIRPORTS["LEMD"]
        plan = FlightPlan("F1", "TST1", dep, arr, make_route(dep, arr, seed=1), 360, 0.0)
        tr = plan.planned_trajectory()
        last = tr[len(tr) - 1]
        assert abs(last.lon - arr.lon) < 0.3 and abs(last.lat - arr.lat) < 0.3

    def test_flight_profile_shape(self):
        flights = generate_flight_dataset(FlightDatasetConfig(n_flights=2), seed=5)
        tr = flights[0].trajectory
        alts = [f.alt for f in tr]
        assert max(alts) > 8000.0             # reaches cruise
        assert alts[0] < 1500.0               # starts near the ground
        assert alts[-1] < 1500.0              # ends near the ground
        phases = {f.annotations["phase"] for f in tr}
        assert phases == {"climb", "cruise", "descent"}

    def test_sampling_period(self):
        flights = generate_flight_dataset(FlightDatasetConfig(n_flights=1), seed=5)
        tr = flights[0].trajectory
        dts = {round(b.t - a.t, 3) for a, b in zip(tr, list(tr)[1:])}
        assert dts == {8.0}

    def test_deviation_from_plan_bounded(self):
        flights = generate_flight_dataset(FlightDatasetConfig(n_flights=3), seed=6)
        from repro.geo import cross_track_error_m

        for fl in flights:
            plan_path = list(fl.plan.planned_trajectory(sample_period_s=30.0))
            errs = cross_track_error_m(list(fl.trajectory), plan_path)
            assert max(errs) < 25_000.0  # deviations exist but are sane
            assert max(errs) > 10.0      # and they are not zero

    def test_dataset_deterministic(self):
        a = generate_flight_dataset(FlightDatasetConfig(n_flights=3), seed=9)
        b = generate_flight_dataset(FlightDatasetConfig(n_flights=3), seed=9)
        assert [f.trajectory[0].lon for f in a] == [f.trajectory[0].lon for f in b]

    def test_crosswind_covariates_present(self):
        flights = generate_flight_dataset(FlightDatasetConfig(n_flights=1), seed=5)
        assert len(flights[0].crosswinds_at_waypoints) == len(flights[0].plan.waypoints)


class TestTable1Measurements:
    def test_measure_ais_rate_scales_with_fleet(self):
        small = measure_ais(n_vessels=5, minutes=3.0)
        large = measure_ais(n_vessels=25, minutes=3.0)
        assert large.messages_per_min > 3 * small.messages_per_min

    def test_measure_weather_obs_rate(self):
        m = measure_weather_obs(hours=4.0)
        # 16 obs/hour = 0.266/min.
        assert m.messages == 16 * 4
        assert m.messages_per_min == pytest.approx(16 / 60.0, rel=1e-6)
