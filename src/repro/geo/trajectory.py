"""Trajectory containers: timestamped position sequences with derived motion.

The paper's data model (Section 4.1) views a trajectory at several
levels of analysis — raw position sequences, synopses of critical
points, semantic segments. This module provides the raw level:
``PositionFix`` (one surveillance message) and ``Trajectory`` (a
per-entity, time-ordered sequence) with the derived kinematics
(speed, heading, acceleration, turn rate, vertical rate) that the
in-situ processor, synopses generator and predictors consume.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from .geometry import GeoPoint, LocalProjection, haversine_m
from .units import normalize_heading


@dataclass(slots=True)
class PositionFix:
    """A single surveillance report for one moving entity.

    ``speed`` is ground speed in m/s, ``heading`` is course over ground in
    degrees, ``vrate`` is vertical rate in m/s (0 for vessels). Any of the
    kinematic fields may be missing from a raw feed, in which case they are
    derived from consecutive fixes by :meth:`Trajectory.with_derived_motion`.

    Immutable by contract: a fix is shared by reference across topics,
    shards and stages, so nothing assigns to it once built (derive a copy
    with :meth:`annotated` or ``dataclasses.replace``);
    ``tests/test_core_integration.py::test_stream_values_are_written_once``
    holds every composition to it. Not ``frozen``: a frozen ``__init__``
    sets each field through ``object.__setattr__``, several times the
    cost of a plain slots one, paid on every fix of every poll. Nothing
    hashes a fix, so it is unhashable.
    """

    entity_id: str
    t: float
    lon: float
    lat: float
    alt: float = 0.0
    speed: float | None = None
    heading: float | None = None
    vrate: float | None = None
    source: str = ""
    annotations: dict = field(default_factory=dict, compare=False)

    def __reduce__(self):
        # Positional pickle: about 2x faster than the slots default
        # (``__getstate__``/``__setstate__`` walk the slots per object).
        return (
            type(self),
            (
                self.entity_id, self.t, self.lon, self.lat, self.alt,
                self.speed, self.heading, self.vrate, self.source, self.annotations,
            ),
        )

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lon, self.lat, self.alt)

    def distance_to(self, other: "PositionFix") -> float:
        """Surface distance to another fix, metres."""
        return haversine_m(self.lon, self.lat, other.lon, other.lat)

    def annotated(self, **extra) -> "PositionFix":
        """A copy with additional annotation entries merged in."""
        merged = dict(self.annotations)
        merged.update(extra)
        return replace(self, annotations=merged)


class Trajectory:
    """An immutable-by-convention, time-ordered sequence of fixes for one entity."""

    __slots__ = ("entity_id", "fixes", "_times")

    def __init__(self, entity_id: str, fixes: Iterable[PositionFix]):
        ordered = sorted(fixes, key=lambda f: f.t)
        for f in ordered:
            if f.entity_id != entity_id:
                raise ValueError(f"fix for {f.entity_id!r} in trajectory of {entity_id!r}")
        self.entity_id = entity_id
        self.fixes: list[PositionFix] = ordered
        self._times = [f.t for f in ordered]

    def __len__(self) -> int:
        return len(self.fixes)

    def __iter__(self) -> Iterator[PositionFix]:
        return iter(self.fixes)

    def __getitem__(self, idx: int) -> PositionFix:
        return self.fixes[idx]

    def __repr__(self) -> str:
        span = f"{self.start_time():.0f}..{self.end_time():.0f}" if self.fixes else "empty"
        return f"Trajectory({self.entity_id!r}, {len(self)} fixes, t={span})"

    def start_time(self) -> float:
        if not self.fixes:
            raise ValueError("empty trajectory has no start time")
        return self.fixes[0].t

    def end_time(self) -> float:
        if not self.fixes:
            raise ValueError("empty trajectory has no end time")
        return self.fixes[-1].t

    def duration(self) -> float:
        """Time span covered, seconds (0 for fewer than 2 fixes)."""
        return 0.0 if len(self.fixes) < 2 else self.end_time() - self.start_time()

    def resampled(self, step_s: float) -> "Trajectory":
        """A linearly interpolated copy on a uniform ``step_s`` time lattice."""
        if step_s <= 0:
            raise ValueError("step must be positive")
        if len(self.fixes) < 2:
            return Trajectory(self.entity_id, list(self.fixes))
        out: list[PositionFix] = []
        t = self.start_time()
        end = self.end_time()
        while t <= end + 1e-9:
            out.append(self.at_time(t))
            t += step_s
        return Trajectory(self.entity_id, out)

    def at_time(self, t: float) -> PositionFix:
        """The (interpolated) fix at time ``t`` (clamped to the time span)."""
        if not self.fixes:
            raise ValueError("empty trajectory")
        if t <= self._times[0]:
            return self.fixes[0]
        if t >= self._times[-1]:
            return self.fixes[-1]
        hi = bisect.bisect_right(self._times, t)
        a, b = self.fixes[hi - 1], self.fixes[hi]
        if b.t == a.t:
            return a
        w = (t - a.t) / (b.t - a.t)
        return PositionFix(
            entity_id=self.entity_id,
            t=t,
            lon=a.lon + w * (b.lon - a.lon),
            lat=a.lat + w * (b.lat - a.lat),
            alt=a.alt + w * (b.alt - a.alt),
            speed=_lerp_optional(a.speed, b.speed, w),
            heading=_lerp_heading(a.heading, b.heading, w),
            vrate=_lerp_optional(a.vrate, b.vrate, w),
            source=a.source,
        )

    def to_xy(self, projection: LocalProjection | None = None) -> list[tuple[float, float]]:
        """Project all fixes to local metres; default origin is the first fix."""
        if not self.fixes:
            return []
        proj = projection or LocalProjection(self.fixes[0].lon, self.fixes[0].lat)
        return [proj.to_xy(f.lon, f.lat) for f in self.fixes]


def _lerp_optional(a: float | None, b: float | None, w: float) -> float | None:
    if a is None or b is None:
        return a if b is None else b
    return a + w * (b - a)


def _lerp_heading(a: float | None, b: float | None, w: float) -> float | None:
    """Interpolate headings along the shortest arc."""
    if a is None or b is None:
        return a if b is None else b
    diff = (b - a + 180.0) % 360.0 - 180.0
    return normalize_heading(a + w * diff)


def group_fixes_by_entity(fixes: Iterable[PositionFix]) -> dict[str, Trajectory]:
    """Partition a fix stream into per-entity trajectories."""
    buckets: dict[str, list[PositionFix]] = {}
    for f in fixes:
        buckets.setdefault(f.entity_id, []).append(f)
    return {eid: Trajectory(eid, fs) for eid, fs in buckets.items()}


def cross_track_error_m(actual: Sequence[PositionFix], reference: Sequence[PositionFix]) -> list[float]:
    """Per-point distance from each actual fix to the closest reference segment.

    This is the "cross-track error" metric the paper quotes for the hybrid
    clustering/HMM predictor (Section 5): how far the actual (or predicted)
    track strays laterally from a reference path (e.g. a flight plan).
    """
    if len(reference) < 2:
        raise ValueError("reference path needs at least 2 points")
    proj = LocalProjection(reference[0].lon, reference[0].lat)
    ref_xy = [proj.to_xy(p.lon, p.lat) for p in reference]
    errors: list[float] = []
    for fix in actual:
        px, py = proj.to_xy(fix.lon, fix.lat)
        best = math.inf
        for (x1, y1), (x2, y2) in zip(ref_xy, ref_xy[1:]):
            best = min(best, _segment_distance(px, py, x1, y1, x2, y2))
        errors.append(best)
    return errors


def _segment_distance(px: float, py: float, x1: float, y1: float, x2: float, y2: float) -> float:
    dx, dy = x2 - x1, y2 - y1
    seg2 = dx * dx + dy * dy
    if seg2 <= 0.0:
        return math.hypot(px - x1, py - y1)
    t = min(1.0, max(0.0, ((px - x1) * dx + (py - y1) * dy) / seg2))
    return math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))
