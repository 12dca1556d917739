"""Low-level area entry/exit events (Section 4.2.1).

Raw positions are enriched, in real time, with events of entering or
leaving geographical areas of interest. An equi-grid index over the
region set keeps the per-fix work proportional to the (few) regions
overlapping the fix's cell rather than the full region catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..datasources.regions import Region
from ..geo import BBox, EquiGrid, FixColumns, PositionFix
from ..geo.columns import LAT, LON


@dataclass(frozen=True, slots=True)
class AreaEvent:
    """An entity crossing an area boundary."""

    entity_id: str
    t: float
    region_id: str
    kind: str           # "entry" | "exit"
    fix: PositionFix


_NOWHERE: frozenset[str] = frozenset()


class RegionIndex:
    """Grid-accelerated point-in-region lookup over a static region set."""

    def __init__(self, regions: Sequence[Region], cell_deg: float = 0.5):
        if not regions:
            raise ValueError("region index over an empty region set")
        self.regions = list(regions)
        box = BBox.of_points(
            [(r.bbox.min_lon, r.bbox.min_lat) for r in regions]
            + [(r.bbox.max_lon, r.bbox.max_lat) for r in regions]
        )
        self.grid = EquiGrid.with_cell_size(box.expanded(cell_deg), cell_deg)
        self._cell_to_regions: dict[int, list[int]] = {}
        for idx, region in enumerate(self.regions):
            for cell_id in self.grid.rasterize_polygon(region.polygon):
                self._cell_to_regions.setdefault(cell_id, []).append(idx)
        #: Per grid cell: some region's rasterization covers it.
        self.covered = np.zeros(len(self.grid), dtype=bool)
        self.covered[list(self._cell_to_regions)] = True

    def candidate_regions(self, lon: float, lat: float) -> list[Region]:
        """Regions whose rasterization covers the point's cell."""
        ids = self._cell_to_regions.get(self.grid.cell_id(lon, lat), [])
        return [self.regions[i] for i in ids]

    def containing(self, lon: float, lat: float) -> list[Region]:
        """Regions actually containing the point."""
        return [r for r in self.candidate_regions(lon, lat) if r.polygon.contains(lon, lat)]

    def occupancy(self, lon: float, lat: float) -> frozenset[str]:
        """The set of region ids containing the point."""
        if not self.covered[self.grid.cell_id(lon, lat)]:
            return _NOWHERE
        return frozenset(r.region_id for r in self.containing(lon, lat))


@dataclass(slots=True)
class _AreaState:
    """Per-entity memory of which regions it is currently inside."""

    inside: frozenset[str] = frozenset()
    initialized: bool = False


class AreaEventDetector:
    """Streaming entry/exit detection against a region index."""

    def __init__(self, index: RegionIndex):
        self.index = index
        self._states: dict[str, _AreaState] = {}
        self.events_emitted = 0

    def process(self, fix: PositionFix) -> list[AreaEvent]:
        """Feed one fix; returns the area events it triggers."""
        state = self._states.get(fix.entity_id)
        if state is None:
            state = self._states[fix.entity_id] = _AreaState()
        now = self.index.occupancy(fix.lon, fix.lat)
        if state.initialized and now == state.inside:
            return []   # nothing entered, nothing left
        events: list[AreaEvent] = []
        if state.initialized:
            for rid in sorted(now - state.inside):
                events.append(AreaEvent(fix.entity_id, fix.t, rid, "entry", fix))
            for rid in sorted(state.inside - now):
                events.append(AreaEvent(fix.entity_id, fix.t, rid, "exit", fix))
        else:
            # The first fix establishes occupancy; report initial containment
            # as entries so downstream consumers see a consistent state.
            for rid in sorted(now):
                events.append(AreaEvent(fix.entity_id, fix.t, rid, "entry", fix))
            state.initialized = True
        state.inside = now
        self.events_emitted += len(events)
        return events

    def process_many(self, fixes: Sequence[PositionFix], columns: FixColumns | None = None) -> list[AreaEvent]:
        """Feed a batch of fixes in order; returns the area events they trigger.

        A loop around :meth:`process` — with the batch's ``columns``, behind
        one exact screen: a fix in a grid cell no region's rasterization
        covers, of an entity that was inside nothing, can neither enter
        nor leave anything and is skipped. The entity was inside nothing
        when its previous fix was in such a cell too — or, for its first
        fix of the batch, when its carried state says so.
        """
        fed = range(len(fixes))
        if columns is not None and not columns.odd and columns.valid[[LON, LAT]].all():
            lon, lat = columns.columns[[LON, LAT]]
            if np.isfinite(lon).all() and np.isfinite(lat).all():
                covered = self.index.covered[self.index.grid.cell_ids_batch(lon, lat)]
                prev = columns.predecessors
                feed = covered | ((prev >= 0) & covered[prev])
                for row in np.flatnonzero(prev < 0).tolist():
                    state = self._states.get(fixes[row].entity_id)
                    feed[row] |= state is None or bool(state.inside) or not state.initialized
                fed = np.flatnonzero(feed).tolist()
        return [event for row in fed for event in self.process(fixes[row])]

    def process_stream(self, fixes: Iterable[PositionFix]) -> Iterator[AreaEvent]:
        """Run the detector over a whole fix stream."""
        for fix in fixes:
            yield from self.process(fix)

