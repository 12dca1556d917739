"""Synthetic AIS fleet simulator (the surveillance surrogate, maritime side).

Replaces the paper's terrestrial/satellite AIS feeds (Table 1) with a
deterministic fleet simulator. Vessels move through behaviour regimes —
port calls, open-sea transit legs, trawling zigzags for fishing vessels,
drifting — with per-regime speeds and report rates modelled on real AIS
class-A behaviour. The simulator also injects the two phenomena the
paper's processing layer exists to handle:

* **noise**: GPS jitter on every fix plus occasional gross outliers
  (the "erroneous data" the online cleaning step must drop), and
* **communication gaps**: silence windows, which the synopses generator
  must flag as gap critical points.

Fishing vessels execute repeated ~180° heading reversals while trawling,
which is exactly the ``NorthToSouthReversal`` behaviour the complex event
forecasting experiment (Figure 8) is trained and evaluated on.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Iterator

from ..geo import BBox, PositionFix, destination_point, normalize_heading
from ..geo.geometry import initial_bearing_deg

from .ports import Port, generate_ports
from .regions import DEFAULT_BBOX
from .registry import VesselRecord, generate_vessel_registry

#: Behaviour regimes a vessel cycles through.
REGIMES = ("docked", "transit", "fishing", "drift")


@dataclass(slots=True)
class _VesselState:
    """Mutable simulation state for one vessel."""

    record: VesselRecord
    lon: float
    lat: float
    speed_ms: float
    heading: float
    regime: str
    regime_until: float
    waypoint: tuple[float, float] | None = None
    silent_until: float = 0.0
    trawl_leg_until: float = 0.0
    trawl_heading: float = 0.0
    rng: random.Random = field(default_factory=random.Random)


@dataclass(frozen=True, slots=True)
class AISConfig:
    """Tunable parameters of the AIS simulator."""

    report_period_s: float = 10.0          # underway class-A dynamic report interval
    docked_period_s: float = 180.0         # at-berth report interval
    gps_noise_m: float = 12.0              # 1-sigma position jitter
    outlier_probability: float = 0.0005    # gross outlier rate per report
    outlier_distance_m: float = 50_000.0
    gap_probability_per_hour: float = 0.05
    gap_duration_s: tuple[float, float] = (600.0, 2400.0)   # 10..40 min
    transit_speed_kn: tuple[float, float] = (9.0, 18.0)
    fishing_speed_kn: tuple[float, float] = (2.5, 6.0)
    drift_speed_kn: tuple[float, float] = (0.2, 1.5)
    trawl_leg_s: tuple[float, float] = (900.0, 2400.0)      # straight trawl legs

    def __post_init__(self):
        if self.report_period_s <= 0 or self.docked_period_s <= 0:
            raise ValueError("report periods must be positive")


class AISSimulator:
    """Deterministic fleet simulator producing a time-ordered AIS fix stream."""

    def __init__(
        self,
        n_vessels: int = 50,
        bbox: BBox = DEFAULT_BBOX,
        seed: int = 1,
        config: AISConfig | None = None,
        ports: list[Port] | None = None,
        vessels: list[VesselRecord] | None = None,
    ):
        self.bbox = bbox
        self.config = config or AISConfig()
        self.seed = seed
        self._master_rng = random.Random(seed)
        self.ports = ports if ports is not None else generate_ports(40, bbox=bbox, seed=seed + 1)
        self.vessels = vessels if vessels is not None else generate_vessel_registry(n_vessels, seed=seed + 2)
        self._states = [self._init_state(v, 0.0) for v in self.vessels]

    def _init_state(self, record: VesselRecord, t: float) -> _VesselState:
        rng = random.Random(self._master_rng.randrange(1 << 30))
        if rng.random() < 0.25 and self.ports:
            port = rng.choice(self.ports)
            lon, lat = port.location.lon, port.location.lat
            regime = "docked"
        else:
            lon = rng.uniform(self.bbox.min_lon, self.bbox.max_lon)
            lat = rng.uniform(self.bbox.min_lat, self.bbox.max_lat)
            regime = "transit"
        state = _VesselState(
            record=record,
            lon=lon,
            lat=lat,
            speed_ms=0.0,
            heading=rng.uniform(0.0, 360.0),
            regime=regime,
            regime_until=t,
            rng=rng,
        )
        self._enter_regime(state, regime, t)
        return state

    # -- regime machinery ---------------------------------------------------

    def _enter_regime(self, s: _VesselState, regime: str, t: float) -> None:
        cfg = self.config
        rng = s.rng
        s.regime = regime
        if regime == "docked":
            s.speed_ms = 0.0
            s.regime_until = t + rng.uniform(1800.0, 4 * 3600.0)
        elif regime == "transit":
            s.speed_ms = _kn(rng.uniform(*cfg.transit_speed_kn))
            s.waypoint = self._random_sea_point(rng)
            s.heading = initial_bearing_deg(s.lon, s.lat, *s.waypoint)
            s.regime_until = t + rng.uniform(3600.0, 6 * 3600.0)
        elif regime == "fishing":
            s.speed_ms = _kn(rng.uniform(*cfg.fishing_speed_kn))
            s.trawl_heading = rng.choice([0.0, 180.0]) + rng.uniform(-25.0, 25.0)
            s.trawl_leg_until = t + rng.uniform(*cfg.trawl_leg_s)
            s.regime_until = t + rng.uniform(2 * 3600.0, 5 * 3600.0)
        elif regime == "drift":
            s.speed_ms = _kn(rng.uniform(*cfg.drift_speed_kn))
            s.regime_until = t + rng.uniform(1200.0, 3600.0)
        else:
            raise ValueError(f"unknown regime {regime!r}")

    def _next_regime(self, s: _VesselState) -> str:
        rng = s.rng
        if s.regime == "docked":
            return "transit"
        if s.regime == "transit":
            if s.record.is_fishing:
                return rng.choices(["fishing", "transit", "docked"], weights=[0.6, 0.25, 0.15])[0]
            return rng.choices(["transit", "docked", "drift"], weights=[0.6, 0.3, 0.1])[0]
        if s.regime == "fishing":
            return rng.choices(["fishing", "transit", "drift"], weights=[0.45, 0.4, 0.15])[0]
        return "transit"

    def _random_sea_point(self, rng: random.Random) -> tuple[float, float]:
        margin = 0.3
        return (
            rng.uniform(self.bbox.min_lon + margin, self.bbox.max_lon - margin),
            rng.uniform(self.bbox.min_lat + margin, self.bbox.max_lat - margin),
        )

    # -- motion integration --------------------------------------------------

    def _advance(self, s: _VesselState, t: float, dt: float) -> None:
        """Integrate one vessel forward by dt seconds ending at time t."""
        cfg = self.config
        rng = s.rng
        if t >= s.regime_until:
            self._enter_regime(s, self._next_regime(s), t)
        if s.regime == "docked":
            return  # berth jitter is applied as GPS noise at emission time
        if s.regime == "transit" and s.waypoint is not None:
            bearing = initial_bearing_deg(s.lon, s.lat, *s.waypoint)
            # Gentle turn toward the waypoint (rate-limited), small meander.
            diff = (bearing - s.heading + 180.0) % 360.0 - 180.0
            max_turn = 4.0 * dt / 10.0   # ~0.4 deg/s
            s.heading = normalize_heading(s.heading + max(-max_turn, min(max_turn, diff)) + rng.gauss(0.0, 0.3))
            s.speed_ms = max(0.5, s.speed_ms + rng.gauss(0.0, 0.05))
        elif s.regime == "fishing":
            if t >= s.trawl_leg_until:
                # Reverse the trawl leg: a ~170-degree clockwise heading
                # reversal, so north-to-south turns sweep through east —
                # the NorthToSouthReversal signature of the CEP experiment.
                s.trawl_heading = normalize_heading(s.trawl_heading + 165.0 + rng.uniform(0.0, 10.0))
                s.trawl_leg_until = t + rng.uniform(*cfg.trawl_leg_s)
            diff = (s.trawl_heading - s.heading + 180.0) % 360.0 - 180.0
            max_turn = 12.0 * dt / 10.0  # fishing vessels turn hard
            s.heading = normalize_heading(s.heading + max(-max_turn, min(max_turn, diff)) + rng.gauss(0.0, 1.0))
            s.speed_ms = max(0.3, s.speed_ms + rng.gauss(0.0, 0.08))
        elif s.regime == "drift":
            s.heading = normalize_heading(s.heading + rng.gauss(0.0, 2.0))
            s.speed_ms = max(0.05, s.speed_ms + rng.gauss(0.0, 0.03))
        dist = s.speed_ms * dt
        if dist > 0.0:
            s.lon, s.lat = destination_point(s.lon, s.lat, s.heading, dist)
            # Reflect at the area boundary instead of sailing off the map.
            if not self.bbox.contains(s.lon, s.lat):
                s.lon = min(max(s.lon, self.bbox.min_lon), self.bbox.max_lon)
                s.lat = min(max(s.lat, self.bbox.min_lat), self.bbox.max_lat)
                s.heading = normalize_heading(s.heading + 180.0)
                if s.regime == "transit":
                    s.waypoint = self._random_sea_point(rng)

    def _emit(self, s: _VesselState, t: float) -> PositionFix:
        """Build the (noisy) AIS report for a vessel at time t."""
        cfg = self.config
        rng = s.rng
        lon, lat = s.lon, s.lat
        # GPS jitter.
        noise = cfg.gps_noise_m
        if noise > 0:
            lon, lat = destination_point(lon, lat, rng.uniform(0.0, 360.0), abs(rng.gauss(0.0, noise)))
        is_outlier = rng.random() < cfg.outlier_probability
        if is_outlier:
            lon, lat = destination_point(lon, lat, rng.uniform(0.0, 360.0), cfg.outlier_distance_m)
        annotations = {"regime": s.regime}
        if is_outlier:
            annotations["outlier"] = True
        return PositionFix(
            entity_id=s.record.mmsi,
            t=t,
            lon=lon,
            lat=lat,
            alt=0.0,
            speed=max(0.0, s.speed_ms + rng.gauss(0.0, 0.1)),
            heading=normalize_heading(s.heading + rng.gauss(0.0, 1.0)),
            vrate=0.0,
            source="ais",
            annotations=annotations,
        )

    def _report_period(self, s: _VesselState) -> float:
        cfg = self.config
        base = cfg.docked_period_s if s.regime == "docked" else cfg.report_period_s
        return base * s.rng.uniform(0.85, 1.15)

    def fixes(self, t_start: float | None = None, t_end: float = 3600.0) -> Iterator[PositionFix]:
        """Yield the fleet's fixes in global time order over [t_start, t_end).

        Gaps are realized by skipping emissions while a vessel is silent;
        the vessel keeps moving, so re-acquisition shows a position jump —
        exactly the signature gap-detection keys on.
        """
        t0 = 0.0 if t_start is None else t_start
        if t_end <= t0:
            return
        cfg = self.config
        heap: list[tuple[float, int]] = []
        last_t: list[float] = []
        for i, s in enumerate(self._states):
            first = t0 + s.rng.uniform(0.0, self._report_period(s))
            heapq.heappush(heap, (first, i))
            last_t.append(t0)
        while heap:
            t, i = heapq.heappop(heap)
            if t >= t_end:
                continue
            s = self._states[i]
            self._advance(s, t, t - last_t[i])
            last_t[i] = t
            # Gap injection: decide silence stochastically at report times.
            if t >= s.silent_until:
                dt = self._report_period(s)
                p_gap = cfg.gap_probability_per_hour * dt / 3600.0
                if s.rng.random() < p_gap:
                    lo, hi = cfg.gap_duration_s
                    s.silent_until = t + s.rng.uniform(lo, hi)
            if t >= s.silent_until:
                yield self._emit(s, t)
            heapq.heappush(heap, (t + self._report_period(s), i))


def _kn(knots: float) -> float:
    """Knots to m/s (local shorthand)."""
    return knots * 1852.0 / 3600.0


def fishing_vessel_stream(
    seed: int = 3, duration_s: float = 12 * 3600.0, report_period_s: float = 10.0
) -> list[PositionFix]:
    """A convenience single-vessel fishing trajectory rich in heading reversals.

    Used by the CEP experiments (Figure 8), which the paper runs on a single
    vessel's annotated turn events.
    """
    record = VesselRecord(
        mmsi="237000001", name="FISHING-CEP", vessel_type="fishing", flag="GR", length_m=24.0, max_speed_kn=11.0
    )
    config = AISConfig(
        report_period_s=report_period_s,
        gap_probability_per_hour=0.0,
        outlier_probability=0.0,
    )
    sim = AISSimulator(bbox=DEFAULT_BBOX, seed=seed, config=config, vessels=[record], ports=[])
    # Pin the vessel into a fishing-heavy cycle: transit is still possible but
    # the regime chooser for fishing vessels favours trawling.
    return list(sim.fixes(0.0, duration_s))
