"""Synthetic ATM data: airports, flight plans, and a flight simulator.

This is the surrogate for the paper's FlightAware ADS-B stream, IFS
radar tracks and ECTL flight-plan context (Table 1). It produces
everything the prediction experiments need:

* **Flight plans** — waypoint routes between Spanish-like airports,
  with a small number of distinct *route variants* per city pair (the
  natural clusters that SemT-OPTICS should recover, Figure 5b).
* **Actual trajectories** — a point-mass flight model with takeoff roll,
  constant-rate climb, waypoint-following cruise, descent and landing.
  Lateral deviations from the plan follow a mean-reverting process
  driven by the cross-track wind, so deviations are *predictable from
  the enrichment covariates* (weather, aircraft size, time of day) —
  the property the hybrid clustering/HMM method exploits.
* **Arrival flows with a runway-change day** for the VA experiments
  (Figures 11 and 12).

All trajectories are sampled at a configurable period (8 s by default,
matching the Figure 5a setup).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..geo import GeoPoint, LocalProjection, PositionFix, Trajectory
from ..geo.geometry import destination_point, haversine_m
from ..geo.units import flight_level_to_m, normalize_heading

from .registry import AircraftRecord, generate_aircraft_registry
from .weather import WeatherField


@dataclass(frozen=True, slots=True)
class Airport:
    """An aerodrome with location and a runway heading."""

    code: str
    name: str
    lon: float
    lat: float
    elevation_m: float = 0.0
    runway_heading: float = 250.0

    @property
    def location(self) -> GeoPoint:
        return GeoPoint(self.lon, self.lat, self.elevation_m)


#: A Spanish-like airport set (codes/coordinates approximate the real ones).
AIRPORTS = {
    "LEBL": Airport("LEBL", "Barcelona", 2.078, 41.297, 4.0, runway_heading=250.0),
    "LEMD": Airport("LEMD", "Madrid", -3.567, 40.472, 610.0, runway_heading=180.0),
    "LEVC": Airport("LEVC", "Valencia", -0.482, 39.489, 69.0, runway_heading=120.0),
    "LEZL": Airport("LEZL", "Sevilla", -5.893, 37.418, 34.0, runway_heading=270.0),
    "LEBB": Airport("LEBB", "Bilbao", -2.911, 43.301, 42.0, runway_heading=300.0),
    "LEPA": Airport("LEPA", "Palma", 2.739, 39.552, 8.0, runway_heading=240.0),
}


@dataclass(frozen=True, slots=True)
class Waypoint:
    """A named lateral fix of a flight plan, with planned altitude."""

    name: str
    lon: float
    lat: float
    alt_m: float


@dataclass(frozen=True, slots=True)
class FlightPlan:
    """The intended trajectory: departure, arrival, lateral route, cruise level."""

    flight_id: str
    callsign: str
    departure: Airport
    arrival: Airport
    waypoints: tuple[Waypoint, ...]
    cruise_fl: int
    scheduled_departure: float
    route_variant: int = 0

    def lateral_path(self) -> list[tuple[float, float]]:
        """Departure -> waypoints -> arrival as lon/lat pairs."""
        path = [(self.departure.lon, self.departure.lat)]
        path.extend((w.lon, w.lat) for w in self.waypoints)
        path.append((self.arrival.lon, self.arrival.lat))
        return path

    def path_length_m(self) -> float:
        path = self.lateral_path()
        return sum(haversine_m(*a, *b) for a, b in zip(path, path[1:]))

    def planned_trajectory(self, sample_period_s: float = 8.0, ground_speed_ms: float | None = None) -> Trajectory:
        """The flight-plan trajectory flown perfectly at constant ground speed.

        Used as the "intended trajectory" reference for deviation metrics and
        the point-matching VA experiment (Figure 12).
        """
        gs = ground_speed_ms or 220.0
        profile = _AltitudeProfile(self, climb_rate_ms=12.0, descent_rate_ms=9.0, ground_speed_ms=gs)
        fixes = []
        t = self.scheduled_departure
        total = self.path_length_m()
        s = 0.0
        walker = _PathWalker(self.lateral_path())
        while s <= total:
            lon, lat = walker.position_at(s)
            fixes.append(
                PositionFix(
                    entity_id=self.flight_id,
                    t=t,
                    lon=lon,
                    lat=lat,
                    alt=profile.altitude_at(s),
                    speed=gs,
                    heading=walker.bearing_at(s),
                    source="plan",
                )
            )
            s += gs * sample_period_s
            t += sample_period_s
        return Trajectory(self.flight_id, fixes)


def make_route(
    departure: Airport,
    arrival: Airport,
    variant: int = 0,
    cruise_fl: int = 360,
    seed: int = 0,
) -> tuple[Waypoint, ...]:
    """Build a waypoint route between two airports.

    Each ``variant`` applies a different systematic lateral dogleg, giving a
    small family of distinguishable routes per city pair — the route clusters
    of Figures 5b and 11. The route has six en-route waypoints.
    """
    n_waypoints = 6
    rng = random.Random((seed * 31 + variant) * 7919 + 13)
    proj = LocalProjection(departure.lon, departure.lat)
    x1, y1 = 0.0, 0.0
    x2, y2 = proj.to_xy(arrival.lon, arrival.lat)
    length = math.hypot(x2 - x1, y2 - y1)
    # Perpendicular unit vector for doglegs.
    px, py = -(y2 - y1) / length, (x2 - x1) / length
    dogleg = (variant - 1) * 0.12 * length + rng.uniform(-0.01, 0.01) * length
    cruise_alt = flight_level_to_m(cruise_fl)
    waypoints = []
    for k in range(1, n_waypoints + 1):
        f = k / (n_waypoints + 1)
        bump = math.sin(math.pi * f)  # max offset mid-route
        wx = x1 + f * (x2 - x1) + px * dogleg * bump + rng.gauss(0.0, 0.004 * length)
        wy = y1 + f * (y2 - y1) + py * dogleg * bump + rng.gauss(0.0, 0.004 * length)
        lon, lat = proj.to_lonlat(wx, wy)
        # Planned altitude: climb to cruise by ~20% of route, descend after ~80%.
        if f < 0.2:
            alt = cruise_alt * f / 0.2
        elif f > 0.8:
            alt = cruise_alt * (1.0 - f) / 0.2
        else:
            alt = cruise_alt
        waypoints.append(Waypoint(f"WP{k:02d}", lon, lat, alt))
    return tuple(waypoints)


class _PathWalker:
    """Arc-length parameterization of a lon/lat polyline (local metres)."""

    def __init__(self, path: list[tuple[float, float]]):
        if len(path) < 2:
            raise ValueError("path needs at least 2 points")
        self.proj = LocalProjection(path[0][0], path[0][1])
        self.xy = [self.proj.to_xy(lon, lat) for lon, lat in path]
        self.cum = [0.0]
        for (ax, ay), (bx, by) in zip(self.xy, self.xy[1:]):
            self.cum.append(self.cum[-1] + math.hypot(bx - ax, by - ay))
        self.total = self.cum[-1]

    def _segment(self, s: float) -> tuple[int, float]:
        s = min(max(s, 0.0), self.total)
        lo, hi = 0, len(self.cum) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.cum[mid] <= s:
                lo = mid
            else:
                hi = mid
        seg_len = self.cum[lo + 1] - self.cum[lo]
        frac = 0.0 if seg_len <= 0 else (s - self.cum[lo]) / seg_len
        return lo, frac

    def position_at(self, s: float) -> tuple[float, float]:
        i, frac = self._segment(s)
        (ax, ay), (bx, by) = self.xy[i], self.xy[i + 1]
        return self.proj.to_lonlat(ax + frac * (bx - ax), ay + frac * (by - ay))

    def xy_at(self, s: float) -> tuple[float, float]:
        i, frac = self._segment(s)
        (ax, ay), (bx, by) = self.xy[i], self.xy[i + 1]
        return ax + frac * (bx - ax), ay + frac * (by - ay)

    def tangent_at(self, s: float) -> tuple[float, float]:
        i, _ = self._segment(s)
        (ax, ay), (bx, by) = self.xy[i], self.xy[i + 1]
        norm = math.hypot(bx - ax, by - ay) or 1.0
        return (bx - ax) / norm, (by - ay) / norm

    def bearing_at(self, s: float) -> float:
        tx, ty = self.tangent_at(s)
        return normalize_heading(math.degrees(math.atan2(tx, ty)))


class _AltitudeProfile:
    """Trapezoid altitude profile: climb -> cruise -> descent, by arc length."""

    def __init__(self, plan: FlightPlan, climb_rate_ms: float, descent_rate_ms: float, ground_speed_ms: float):
        self.total = plan.path_length_m()
        self.cruise_alt = flight_level_to_m(plan.cruise_fl)
        self.dep_elev = plan.departure.elevation_m
        self.arr_elev = plan.arrival.elevation_m
        # Distance needed to climb/descend at the given rates and speed.
        self.climb_dist = min(0.35 * self.total, (self.cruise_alt - self.dep_elev) / climb_rate_ms * ground_speed_ms)
        self.descent_dist = min(0.35 * self.total, (self.cruise_alt - self.arr_elev) / descent_rate_ms * ground_speed_ms)

    def altitude_at(self, s: float) -> float:
        if s < self.climb_dist:
            return self.dep_elev + (self.cruise_alt - self.dep_elev) * s / self.climb_dist
        if s > self.total - self.descent_dist:
            remain = max(0.0, self.total - s)
            return self.arr_elev + (self.cruise_alt - self.arr_elev) * remain / self.descent_dist
        return self.cruise_alt


@dataclass(frozen=True, slots=True)
class FlightConfig:
    """Tunables of the actual-flight simulator."""

    sample_period_s: float = 8.0
    wind_deviation_gain: float = 120.0     # metres of offset per m/s of crosswind (equilibrium)
    offset_relaxation_s: float = 600.0     # mean-reversion time constant of the lateral offset
    offset_noise_m: float = 40.0           # per-step lateral process noise (1 sigma)
    size_gain: dict = field(
        default_factory=lambda: {"light": 1.6, "medium": 1.0, "heavy": 0.7}
    )
    gps_noise_m: float = 8.0
    runway_offset_m: float = 0.0           # lateral displacement of takeoff/landing (runway change)


@dataclass(frozen=True, slots=True)
class SimulatedFlight:
    """A flight plan together with the actual trajectory flown."""

    plan: FlightPlan
    aircraft: AircraftRecord
    trajectory: Trajectory
    crosswinds_at_waypoints: tuple[float, ...]


class FlightSimulator:
    """Fly a plan through a weather field, producing a realistic actual track."""

    def __init__(self, weather: WeatherField, config: FlightConfig | None = None, seed: int = 0):
        self.weather = weather
        self.config = config or FlightConfig()
        self.seed = seed

    def fly(self, plan: FlightPlan, aircraft: AircraftRecord, seed: int | None = None) -> SimulatedFlight:
        """Simulate the actual flight for ``plan`` with the given airframe."""
        cfg = self.config
        rng = random.Random(self.seed * 1_000_003 + (seed if seed is not None else hash(plan.flight_id) % 100_000))
        walker = _PathWalker(plan.lateral_path())
        gs_nominal = aircraft.cruise_speed_ms
        profile = _AltitudeProfile(plan, climb_rate_ms=12.0, descent_rate_ms=9.0, ground_speed_ms=gs_nominal)
        size_gain = cfg.size_gain.get(aircraft.size_class, 1.0)

        dt = cfg.sample_period_s
        fixes: list[PositionFix] = []
        s = 0.0
        t = plan.scheduled_departure
        offset = 0.0  # signed lateral offset from plan, metres (+ = left of track)
        alpha = math.exp(-dt / cfg.offset_relaxation_s)
        total = walker.total
        while s <= total:
            lon_plan, lat_plan = walker.position_at(s)
            tx, ty = walker.tangent_at(s)
            nx, ny = -ty, tx  # left normal
            u, v = self.weather.wind_at(lon_plan, lat_plan, t)
            crosswind = u * nx + v * ny        # wind component pushing left of track
            headwind = -(u * tx + v * ty)
            # Lateral offset: mean-reverting toward the wind-set equilibrium.
            equilibrium = cfg.wind_deviation_gain * size_gain * crosswind
            offset = alpha * offset + (1.0 - alpha) * equilibrium + rng.gauss(0.0, cfg.offset_noise_m)
            # Runway-change displacement affects the first/last ~15 km.
            rw = cfg.runway_offset_m
            taper = 1.0
            if rw:
                edge = min(s, total - s)
                taper = max(0.0, 1.0 - edge / 15_000.0)
            lateral = offset + rw * taper
            x_plan, y_plan = walker.xy_at(s)
            lon, lat = walker.proj.to_lonlat(x_plan + nx * lateral, y_plan + ny * lateral)
            # Speed profile: slower in climb-out/final, modulated by headwind.
            phase_frac = s / total if total else 0.0
            speed_profile = 0.55 + 0.45 * math.sin(math.pi * min(1.0, max(0.0, phase_frac)) ** 0.8)
            gs = max(60.0, gs_nominal * min(1.0, 0.45 + speed_profile) - 0.5 * headwind)
            alt = profile.altitude_at(s)
            vrate = (profile.altitude_at(s + gs * dt) - alt) / dt
            # GPS jitter.
            jlon, jlat = destination_point(lon, lat, rng.uniform(0, 360), abs(rng.gauss(0.0, cfg.gps_noise_m)))
            heading = normalize_heading(walker.bearing_at(s) - math.degrees(math.atan2(lateral, max(gs * 30.0, 1.0))) * 0.2)
            fixes.append(
                PositionFix(
                    entity_id=plan.flight_id,
                    t=t,
                    lon=jlon,
                    lat=jlat,
                    alt=alt,
                    speed=gs,
                    heading=heading,
                    vrate=vrate,
                    source="adsb",
                    annotations={"phase": _phase_name(s, profile, total)},
                )
            )
            s += gs * dt
            t += dt
        crosswinds = tuple(
            self._crosswind_at_waypoint(plan, w, walker) for w in plan.waypoints
        )
        return SimulatedFlight(plan=plan, aircraft=aircraft, trajectory=Trajectory(plan.flight_id, fixes), crosswinds_at_waypoints=crosswinds)

    def _crosswind_at_waypoint(self, plan: FlightPlan, waypoint: Waypoint, walker: _PathWalker) -> float:
        """The crosswind covariate at a waypoint (at scheduled overfly time)."""
        # Approximate overfly time from the fraction of route completed.
        wx, wy = walker.proj.to_xy(waypoint.lon, waypoint.lat)
        # Nearest arc length by sampling segment endpoints.
        best_s, best_d = 0.0, math.inf
        for i, (x, y) in enumerate(walker.xy):
            d = math.hypot(x - wx, y - wy)
            if d < best_d:
                best_d, best_s = d, walker.cum[i]
        t = plan.scheduled_departure + best_s / 200.0
        lon, lat = walker.position_at(best_s)
        tx, ty = walker.tangent_at(best_s)
        u, v = self.weather.wind_at(lon, lat, t)
        return u * (-ty) + v * tx


def _phase_name(s: float, profile: _AltitudeProfile, total: float) -> str:
    if s < profile.climb_dist:
        return "climb"
    if s > total - profile.descent_dist:
        return "descent"
    return "cruise"


@dataclass(frozen=True, slots=True)
class FlightDatasetConfig:
    """Configuration for bulk flight-history generation."""

    n_flights: int = 120
    city_pairs: tuple[tuple[str, str], ...] = (("LEBL", "LEMD"), ("LEMD", "LEBL"))
    variants_per_pair: int = 3
    sample_period_s: float = 8.0
    start_t: float = 0.0
    departure_spread_s: float = 14 * 24 * 3600.0  # two weeks of departures


def generate_flight_dataset(
    config: FlightDatasetConfig | None = None,
    seed: int = 23,
) -> list[SimulatedFlight]:
    """Generate a history of flights over a handful of route variants.

    This is the training/evaluation corpus for the TP experiments
    (Figure 5b): per city pair there are ``variants_per_pair`` route
    clusters; each flight flies one variant through time-varying weather
    with an airframe drawn from the registry.
    """
    cfg = config or FlightDatasetConfig()
    wx = WeatherField(seed=seed + 1)
    rng = random.Random(seed)
    aircraft_pool = generate_aircraft_registry(max(8, cfg.n_flights // 10), seed=seed + 2)
    simulator = FlightSimulator(wx, FlightConfig(sample_period_s=cfg.sample_period_s), seed=seed + 3)
    flights: list[SimulatedFlight] = []
    for i in range(cfg.n_flights):
        dep_code, arr_code = cfg.city_pairs[i % len(cfg.city_pairs)]
        dep, arr = AIRPORTS[dep_code], AIRPORTS[arr_code]
        variant = rng.randrange(cfg.variants_per_pair)
        aircraft = rng.choice(aircraft_pool)
        waypoints = make_route(dep, arr, variant=variant, cruise_fl=aircraft.cruise_fl, seed=seed)
        plan = FlightPlan(
            flight_id=f"FL{i:05d}",
            callsign=f"REP{i:04d}",
            departure=dep,
            arrival=arr,
            waypoints=waypoints,
            cruise_fl=aircraft.cruise_fl,
            scheduled_departure=cfg.start_t + rng.uniform(0.0, cfg.departure_spread_s),
            route_variant=variant,
        )
        flights.append(simulator.fly(plan, aircraft, seed=i))
    return flights
