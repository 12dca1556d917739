"""Streaming proximity discovery among moving entities (Section 4.2.4).

The paper's component identifies proximity relations *among* critical
points when dealing with streamed data, using a book-keeping process
that cleans the grid: given a temporal distance threshold, entities that
fall out of temporal scope can never satisfy the relation again and are
evicted. This module implements that: a grid of recent points with
lazy eviction, producing ``geosparql:nearTo`` links between moving
entities (e.g. two vessels within 5 km and 5 minutes — the collision
precursor of the maritime scenario).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..geo import BBox, EquiGrid, PositionFix

from .blocking import default_grid
from .discoverer import DiscoveryResult
from .relations import Link, NEAR_TO, points_near


@dataclass
class StreamingStats:
    """Book-keeping accounting."""

    inserted: int = 0
    evicted: int = 0
    comparisons: int = 0


class MovingProximityDiscoverer:
    """Online nearTo discovery between moving entities in one pass, over
    time-ordered input: each fix evicts what is out of its temporal scope,
    so an older fix arriving later misses links it would have made."""

    def __init__(
        self,
        bbox: BBox,
        space_threshold_m: float,
        time_threshold_s: float,
        cell_deg: float = 0.25,
        registry=None,
    ):
        if space_threshold_m <= 0 or time_threshold_s <= 0:
            raise ValueError("thresholds must be positive")
        self.space_threshold_m = space_threshold_m
        self.time_threshold_s = time_threshold_s
        self.grid: EquiGrid = default_grid(bbox, cell_deg)
        self._radius = self.grid.radius_to_cells(space_threshold_m)
        # cell_id -> deque of recent fixes (append order = arrival order).
        self._cells: dict[int, deque[PositionFix]] = {}
        # centre cell_id -> the ids of the cells its fixes compare against.
        self._neighbours: dict[int, tuple[int, ...]] = {}
        self.stats = StreamingStats()
        if registry is not None:
            # Candidate-pair/book-keeping accounting as live gauges over the
            # stats the discoverer already keeps, plus the grid's footprint.
            registry.gauge("linkdiscovery.proximity.candidate_pairs", fn=lambda: self.stats.comparisons)
            registry.gauge("linkdiscovery.proximity.inserted", fn=lambda: self.stats.inserted)
            registry.gauge("linkdiscovery.proximity.evicted", fn=lambda: self.stats.evicted)
            registry.gauge("linkdiscovery.proximity.live_entries", fn=self.live_entries)

    def process(self, fix: PositionFix) -> list[Link]:
        """Insert one fix; returns nearTo links against recent neighbours."""
        return self._insert([fix], [self.grid.cell_id(fix.lon, fix.lat)])[0]

    def process_many(self, fixes: Sequence[PositionFix]) -> list[list[Link]]:
        """:meth:`process` of every fix, in order; the centre cells come
        from one ``cell_ids_batch`` call."""
        centres = self.grid.cell_ids_batch([f.lon for f in fixes], [f.lat for f in fixes])
        return self._insert(fixes, centres.tolist())

    def _insert(self, fixes: Sequence[PositionFix], centres: list[int]) -> list[list[Link]]:
        """Insert each fix into its centre cell after comparing it with the
        neighbour cells' recent fixes, evicting those out of temporal scope
        (book-keeping) from every cell it visits."""
        cells, neighbours = self._cells, self._neighbours
        space_m, time_s = self.space_threshold_m, self.time_threshold_s
        comparisons = evicted = 0
        found: list[list[Link]] = []
        for fix, centre in zip(fixes, centres):
            around = neighbours.get(centre)
            if around is None:
                around = neighbours[centre] = tuple(self.grid.neighbour_ids(centre, radius=self._radius))
            horizon = fix.t - time_s
            links: list[Link] = []
            for cell_id in around:
                bucket = cells.get(cell_id)
                if bucket is None:
                    continue
                while bucket and bucket[0].t < horizon:
                    bucket.popleft()
                    evicted += 1
                if not bucket:
                    del cells[cell_id]
                    continue
                for other in bucket:
                    if other.entity_id == fix.entity_id:
                        continue
                    comparisons += 1
                    near, d = points_near(fix, other, space_m, time_s)
                    if near:
                        links.append(Link(fix.entity_id, other.entity_id, NEAR_TO, fix.t, d))
            cells.setdefault(centre, deque()).append(fix)
            found.append(links)
        self.stats.inserted += len(found)
        self.stats.evicted += evicted
        self.stats.comparisons += comparisons
        return found

    def discover(self, fixes: Iterable[PositionFix]) -> DiscoveryResult:
        """:meth:`process_many` over a bounded stream, flattened;
        ``refinements`` are this call's comparisons only."""
        comparisons_before = self.stats.comparisons
        fixes = list(fixes)
        links = [link for found in self.process_many(fixes) for link in found]
        return DiscoveryResult(links, len(fixes), refinements=self.stats.comparisons - comparisons_before)

    def live_entries(self) -> int:
        """How many fixes are currently retained in the grid."""
        return sum(len(bucket) for bucket in self._cells.values())
