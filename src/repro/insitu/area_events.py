"""Low-level area entry/exit events (Section 4.2.1).

Raw positions are enriched, in real time, with events of entering or
leaving geographical areas of interest. An equi-grid index over the
region set keeps the per-fix work proportional to the (few) regions
overlapping the fix's cell rather than the full region catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..datasources.regions import Region
from ..geo import BBox, EquiGrid, PositionFix


@dataclass(frozen=True, slots=True)
class AreaEvent:
    """An entity crossing an area boundary."""

    entity_id: str
    t: float
    region_id: str
    kind: str           # "entry" | "exit"
    fix: PositionFix


class RegionIndex:
    """Grid-accelerated point-in-region lookup over a static region set."""

    def __init__(self, regions: Sequence[Region], cell_deg: float = 0.5, bbox: BBox | None = None):
        if not regions:
            raise ValueError("region index over an empty region set")
        self.regions = list(regions)
        box = bbox or BBox.of_points(
            [(r.bbox.min_lon, r.bbox.min_lat) for r in regions]
            + [(r.bbox.max_lon, r.bbox.max_lat) for r in regions]
        )
        self.grid = EquiGrid.with_cell_size(box.expanded(cell_deg), cell_deg)
        self._cell_to_regions: dict[int, list[int]] = {}
        for idx, region in enumerate(self.regions):
            for cell_id in self.grid.rasterize_polygon(region.polygon):
                self._cell_to_regions.setdefault(cell_id, []).append(idx)

    def candidate_regions(self, lon: float, lat: float) -> list[Region]:
        """Regions whose rasterization covers the point's cell."""
        ids = self._cell_to_regions.get(self.grid.cell_id(lon, lat), [])
        return [self.regions[i] for i in ids]

    def containing(self, lon: float, lat: float) -> list[Region]:
        """Regions actually containing the point."""
        return [r for r in self.candidate_regions(lon, lat) if r.polygon.contains(lon, lat)]

    def occupancy(self, lon: float, lat: float) -> frozenset[str]:
        """The set of region ids containing the point."""
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
        state = self._states.setdefault(fix.entity_id, _AreaState())
        now = self.index.occupancy(fix.lon, fix.lat)
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

    def process_many(self, fixes: Iterable[PositionFix]) -> list[AreaEvent]:
        """Feed a batch of fixes in order; returns the area events they trigger.

        A loop around :meth:`process` behind one exact prefilter: a fix of
        an initialised entity that is inside nothing, in a grid cell no
        region's rasterization covers, can neither enter nor leave
        anything and is skipped.
        """
        states, cell_id, covered = self._states, self.index.grid.cell_id, self.index._cell_to_regions
        events: list[AreaEvent] = []
        for fix in fixes:
            state = states.get(fix.entity_id)
            if state is None or state.inside or not state.initialized or cell_id(fix.lon, fix.lat) in covered:
                events.extend(self.process(fix))
        return events

    def process_stream(self, fixes: Iterable[PositionFix]) -> Iterator[AreaEvent]:
        """Run the detector over a whole fix stream."""
        for fix in fixes:
            yield from self.process(fix)

    def currently_inside(self, entity_id: str) -> frozenset[str]:
        """The regions an entity is currently known to be inside."""
        state = self._states.get(entity_id)
        return state.inside if state else frozenset()
