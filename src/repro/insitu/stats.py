"""Online per-trajectory statistics (Section 4.2.1).

The low-level event detector enriches the raw stream with per-trajectory
min/max/mean/median of derived properties (speed, acceleration, ...) in
a single pass, "in situ" — as close to the source as possible. The
median is exact (two-heap streaming median): the volumes per entity are
modest, and exactness simplifies downstream data-quality assessment.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable

from ..geo import PositionFix


class OnlineStats:
    """Single-pass min / max / mean / variance / exact median of a scalar."""

    __slots__ = ("count", "min", "max", "_mean", "_m2", "_lo", "_hi")

    def __init__(self):
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0
        self._lo: list[float] = []  # max-heap (negated) of the lower half
        self._hi: list[float] = []  # min-heap of the upper half

    def add(self, x: float) -> None:
        """Fold one observation in."""
        if math.isnan(x):
            return
        self.count += 1
        self.min = min(self.min, x)
        self.max = max(self.max, x)
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        # Median heaps.
        if not self._lo or x <= -self._lo[0]:
            heapq.heappush(self._lo, -x)
        else:
            heapq.heappush(self._hi, x)
        if len(self._lo) > len(self._hi) + 1:
            heapq.heappush(self._hi, -heapq.heappop(self._lo))
        elif len(self._hi) > len(self._lo):
            heapq.heappush(self._lo, -heapq.heappop(self._hi))

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else math.nan

    @property
    def stdev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def median(self) -> float:
        if not self.count:
            return math.nan
        if len(self._lo) > len(self._hi):
            return -self._lo[0]
        return (-self._lo[0] + self._hi[0]) / 2.0

    def snapshot(self) -> dict[str, float]:
        """The statistics as a plain dict (what gets attached to the stream)."""
        return {
            "count": float(self.count),
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "mean": self.mean,
            "median": self.median,
            "stdev": self.stdev,
        }


@dataclass(slots=True)
class TrajectoryStatsState:
    """Per-entity state: stats of speed and acceleration, plus the last fix."""

    speed: OnlineStats = field(default_factory=OnlineStats)
    acceleration: OnlineStats = field(default_factory=OnlineStats)
    last_fix: PositionFix | None = None
    last_speed: float | None = None


def update_trajectory_stats(state: TrajectoryStatsState, fix: PositionFix) -> PositionFix:
    """Fold one fix into the state; returns the fix annotated with the stats."""
    speed = fix.speed
    if speed is None and state.last_fix is not None and fix.t > state.last_fix.t:
        speed = state.last_fix.distance_to(fix) / (fix.t - state.last_fix.t)
    if speed is not None:
        state.speed.add(speed)
        if state.last_speed is not None and state.last_fix is not None and fix.t > state.last_fix.t:
            state.acceleration.add((speed - state.last_speed) / (fix.t - state.last_fix.t))
        state.last_speed = speed
    state.last_fix = fix
    return fix.annotated(
        speed_stats=state.speed.snapshot(),
        accel_stats=state.acceleration.snapshot(),
    )


def stats_for_fixes(fixes: Iterable[PositionFix]) -> dict[str, TrajectoryStatsState]:
    """Batch helper: run the in-situ statistics over a fix iterable."""
    states: dict[str, TrajectoryStatsState] = {}
    for fix in fixes:
        state = states.setdefault(fix.entity_id, TrajectoryStatsState())
        update_trajectory_stats(state, fix)
    return states
