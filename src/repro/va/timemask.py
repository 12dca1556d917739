"""Time masks: temporal filters over disjoint intervals (Figure 10, [7]).

A *time mask* is "a type of temporal filter suitable for selection of
multiple disjoint time intervals in which some query conditions on
arbitrary attributes hold". The analyst sets a condition on one dataset
(e.g. hourly bins containing at least one near-location event), obtains
the mask, and applies it to *other* time-referenced data — trajectories,
events, measurements — selecting the objects or trajectory segments
falling inside the selected intervals. The selected and complement
subsets are then summarized (e.g. as spatial densities) and compared.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..geo import PositionFix, Trajectory

from .histogram import TimeBin, TimeHistogram


@dataclass(frozen=True, slots=True)
class Interval:
    """One selected time interval [start, end)."""

    start: float
    end: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("interval must have positive length")

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


class TimeMask:
    """A set of disjoint, sorted time intervals."""

    def __init__(self, intervals: Iterable[Interval]):
        merged = _merge(sorted(intervals, key=lambda iv: iv.start))
        self.intervals: list[Interval] = merged
        self._starts = [iv.start for iv in merged]

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def total_duration(self) -> float:
        return sum(iv.end - iv.start for iv in self.intervals)

    def contains(self, t: float) -> bool:
        """Whether timestamp ``t`` falls into any selected interval."""
        i = bisect.bisect_right(self._starts, t) - 1
        return i >= 0 and self.intervals[i].contains(t)

    @classmethod
    def from_histogram(cls, histogram: TimeHistogram, predicate: Callable[[TimeBin], bool]) -> "TimeMask":
        """Build the mask of all bins satisfying a query condition."""
        intervals = [
            Interval(b.start, b.end)
            for b in histogram.bins()
            if predicate(b)
        ]
        return cls(intervals)

    # -- applying the mask ---------------------------------------------------------

    def split_trajectory(self, trajectory: Trajectory) -> tuple[list[PositionFix], list[PositionFix]]:
        """(inside, outside) fixes of one trajectory."""
        inside, outside = [], []
        for fix in trajectory:
            (inside if self.contains(fix.t) else outside).append(fix)
        return inside, outside


def _merge(sorted_intervals: Sequence[Interval]) -> list[Interval]:
    merged: list[Interval] = []
    for iv in sorted_intervals:
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, iv.end)
        else:
            merged.append(iv)
    return merged
