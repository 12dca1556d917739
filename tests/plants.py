"""Hostile fix streams with values planted at, and one float either side
of, every threshold the cleaning and synopses screens evaluate.

A stream is drawn as a list of ``(entity, move, side)``: each entity
cruises east along its own parallel — the equator (where the course is
exactly 90 degrees), across the antimeridian, a few metres from the
pole, and mid-latitude — and a *move* bends one report: its time step,
heading, speed, altitude, position or field types. ``side`` picks the
value just below, at, or just above the threshold the move aims at.
Most moves are plain cruising, so the screens clear most rows and the
plants land in otherwise quiet windows.
"""

import math

from hypothesis import strategies as st

from repro.geo import PositionFix, haversine_m
from repro.insitu import QualityConfig
from repro.synopses import SynopsesConfig

#: A generator config under which 0.1 m/s (the mean-speed floor of the
#: speed-change rule) is cruising, not a stop.
CRAWL = SynopsesConfig(stop_speed_ms=0.01, slow_speed_ms=0.05, min_reemit_s=30.0)
CONFIGS = (SynopsesConfig(), SynopsesConfig(min_reemit_s=30.0), CRAWL)
QUALITY = QualityConfig()

_M_PER_DEG = 111_194.92664455873
#: entity -> (lon, lat) it starts from; every one heads due east.
ENTITIES = {"eq": (9.0, 0.0), "am": (179.999, 10.0), "np": (0.0, 89.99), "mid": (9.0, 37.0)}
#: ``ENTITIES`` plus a close neighbour of ``mid``: two parallel tracks
#: under a kilometre apart, so proximity links fire between them.
CROWD = {**ENTITIES, "mid2": (9.01, 37.0)}
_CRUISE_MS, _STEP_S = 8.0, 10.0


def around(x: float, side: int) -> float:
    """The float just below (0), at (1) or just above (2) ``x``."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))[side]


#: move -> the field overrides of one report, given (side, generator config).
MOVES = {
    "cruise": lambda side, cfg: {},
    # time steps: duplicate, regression, the course-window edge, the gap threshold
    "dt_zero": lambda side, cfg: {"dt": 0.0},
    "dt_back": lambda side, cfg: {"dt": -5.0},
    "dt_window": lambda side, cfg: {"dt": around(cfg.course_window_s, side)},
    "dt_gap": lambda side, cfg: {"dt": around(cfg.gap_threshold_s, side)},
    # heading against the (due east) course
    "turn": lambda side, cfg: {"heading": around(90.0 + cfg.turn_threshold_deg, side)},
    "turn_port": lambda side, cfg: {"heading": around(90.0 - cfg.turn_threshold_deg, side)},
    # speed against the windowed mean, and the mean against its floor
    "faster": lambda side, cfg: {"speed": around(_CRUISE_MS * (1.0 + cfg.speed_change_ratio), side)},
    "slower": lambda side, cfg: {"speed": around(_CRUISE_MS * (1.0 - cfg.speed_change_ratio), side)},
    "crawl": lambda side, cfg: {"speed": around(0.1, side)},
    "stop": lambda side, cfg: {"speed": around(cfg.stop_speed_ms, side)},
    "slow": lambda side, cfg: {"speed": around(cfg.slow_speed_ms, side)},
    "too_fast": lambda side, cfg: {"speed": around(QUALITY.max_reported_speed_ms, side)},
    # implied speed against the noise filter and the cleaning limit (both 40 m/s)
    "implied": lambda side, cfg: {"implied": (cfg.max_speed_ms, side)},
    "teleport": lambda side, cfg: {"jump_deg": 1.0},                    # one outlier
    "relocate": lambda side, cfg: {"shift_deg": (0.005, 0.01, 0.02)[side]},  # a chain of them
    # vertical
    "airborne": lambda side, cfg: {"alt": around(cfg.ground_altitude_m, side)},
    "climb": lambda side, cfg: {"vrate": around(cfg.altitude_rate_ms, side)},
    "sink": lambda side, cfg: {"vrate": -around(cfg.altitude_rate_ms, side)},
    # missing and odd fields
    "no_speed": lambda side, cfg: {"speed": None},
    "no_heading": lambda side, cfg: {"heading": None},
    "no_vrate": lambda side, cfg: {"vrate": None},
    "odd_speed": lambda side, cfg: {"speed": (float("nan"), float("inf"), -1.0)[side]},
    "odd_heading": lambda side, cfg: {"heading": (float("nan"), 450.0, -270.0)[side]},
    "int_field": lambda side, cfg: ({"speed": 8}, {"alt": 0}, {"heading": 90})[side],
    # what only cleaning drops
    "off_range": lambda side, cfg: ({"lat": 95.0}, {"lon": 200.0}, {"lon": float("nan")})[side],
    "bad_clock": lambda side, cfg: {"t": (float("nan"), float("inf"), float("-inf"))[side]},
}


def report(entities=ENTITIES):
    """One report of a hostile stream over ``entities``; two thirds of them cruise."""
    return st.tuples(
        st.sampled_from(sorted(entities)),
        st.sampled_from(["cruise"] * (2 * len(MOVES)) + sorted(MOVES)),
        st.integers(0, 2),
    )


REPORT = report()


def planted_stream(reports, cfg: SynopsesConfig = CONFIGS[0], entities=ENTITIES) -> list[PositionFix]:
    """The fixes of ``reports``, in report order."""
    cursor = {eid: [1000.0, lon, lat] for eid, (lon, lat) in entities.items()}
    fixes = []
    for eid, move, side in reports:
        bend = MOVES[move](side, cfg)
        t, lon, lat = cursor[eid]
        dt = bend.get("dt", _STEP_S)
        lon += _CRUISE_MS * _STEP_S / (_M_PER_DEG * math.cos(math.radians(lat))) + bend.get("shift_deg", 0.0)
        if "implied" in bend:
            # The step whose implied speed from the last report is at the limit.
            limit, side = bend["implied"]
            lon = cursor[eid][1] + 0.02
            dt = around(haversine_m(cursor[eid][1], lat, lon, lat) / limit, side)
        if lon > 180.0:
            lon -= 360.0
        t += dt
        cursor[eid] = [t if dt > 0 else cursor[eid][0], lon, lat]
        lon += bend.get("jump_deg", 0.0)
        fields = {"t": t, "lon": lon, "lat": lat, "alt": 0.0, "speed": _CRUISE_MS, "heading": 90.0, "vrate": 0.0}
        fields.update({k: v for k, v in bend.items() if k in fields})
        fixes.append(PositionFix(eid, **fields))
    return fixes


def chunks(stream: list, cuts: list[int]) -> list[list]:
    """``stream`` cut at the given positions (any order, repeats allowed)."""
    bounds = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]
