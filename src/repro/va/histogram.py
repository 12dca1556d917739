"""Time histograms with categorical segmentation (Figures 10 and 11).

The VA displays of the paper aggregate object counts into fixed time
bins — hourly vessel counts (Figure 10), hourly flight arrivals with
bars segmented by route-cluster membership (Figure 11). This module
provides that aggregation as data (bin edges + per-category counts);
the dashboard renders it as text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class TimeBin:
    """One histogram bin: [start, end) with per-category counts."""

    start: float
    end: float
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class TimeHistogram:
    """Counts of (t, category) samples over uniform time bins."""

    def __init__(self, t_start: float, t_end: float, bin_s: float):
        if bin_s <= 0:
            raise ValueError("bin width must be positive")
        if t_end <= t_start:
            raise ValueError("empty time range")
        self.t_start = t_start
        self.t_end = t_end
        self.bin_s = bin_s
        self.n_bins = int(math.ceil((t_end - t_start) / bin_s))
        self._counts: list[dict[str, int]] = [{} for _ in range(self.n_bins)]
        self.out_of_range = 0

    def add(self, t: float, category: str = "all") -> None:
        """Count one sample."""
        idx = math.floor((t - self.t_start) / self.bin_s)
        if not 0 <= idx < self.n_bins:
            self.out_of_range += 1
            return
        counts = self._counts[idx]
        counts[category] = counts.get(category, 0) + 1

    def add_all(self, samples: Iterable[tuple[float, str]]) -> None:
        for t, category in samples:
            self.add(t, category)

    def bins(self) -> list[TimeBin]:
        return [
            TimeBin(self.t_start + i * self.bin_s, self.t_start + (i + 1) * self.bin_s, dict(c))
            for i, c in enumerate(self._counts)
        ]

    def series(self) -> list[int]:
        """The per-bin totals."""
        return [sum(c.values()) for c in self._counts]

    def categories(self) -> list[str]:
        cats: set[str] = set()
        for c in self._counts:
            cats.update(c)
        return sorted(cats)

