"""Equi-grid blocking of stationary entities (Section 4.2.4).

Link discovery organizes entities with a space-partitioning equi-grid:
every stationary entity (region, port) is assigned to the cells its
geometry overlaps; a moving entity's fix is assigned to exactly one
cell, and only the stationary entities registered in that cell (or,
for distance relations, the cells within the distance radius) are
candidate pairs. The temporal dimension is deliberately *not*
partitioned — temporal scoping is handled by the streaming
book-keeping instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasources.ports import Port
from ..datasources.regions import Region
from ..geo import BBox, EquiGrid


@dataclass
class BlockingStats:
    """Candidate-generation accounting (to quantify pruning)."""

    lookups: int = 0
    candidates: int = 0


class RegionBlocks:
    """Grid assignment of regions to cells."""

    def __init__(self, regions: list[Region], grid: EquiGrid):
        self.grid = grid
        self.regions = list(regions)
        self._cell_to_regions: dict[int, list[int]] = {}
        for idx, region in enumerate(self.regions):
            for cell_id in grid.rasterize_polygon(region.polygon):
                self._cell_to_regions.setdefault(cell_id, []).append(idx)
        self.stats = BlockingStats()

    def candidates(self, lon: float, lat: float) -> list[Region]:
        """The regions blocked with the point's cell."""
        return [self.regions[i] for i in self.candidate_indices(lon, lat)]

    def candidate_indices(self, lon: float, lat: float) -> list[int]:
        """Indices (into the region list) of the candidates for a point."""
        ids = self._cell_to_regions.get(self.grid.cell_id(lon, lat), [])
        self.stats.lookups += 1
        self.stats.candidates += len(ids)
        return ids

    def occupied_cells(self) -> int:
        return len(self._cell_to_regions)


class PortBlocks:
    """Grid assignment of port points to cells, with a distance margin."""

    def __init__(self, ports: list[Port], grid: EquiGrid, threshold_m: float):
        self.grid = grid
        self.ports = list(ports)
        self.threshold_m = threshold_m
        self._cell_to_ports: dict[int, list[int]] = {}
        radius_cells = grid.radius_to_cells(threshold_m)
        for idx, port in enumerate(self.ports):
            center = grid.cell_id(port.location.lon, port.location.lat)
            for cell_id in grid.neighbour_ids(center, radius=radius_cells):
                self._cell_to_ports.setdefault(cell_id, []).append(idx)
        self.stats = BlockingStats()

    def candidate_indices(self, lon: float, lat: float) -> list[int]:
        """Indices (into the port list) of the candidates for a point."""
        ids = self._cell_to_ports.get(self.grid.cell_id(lon, lat), [])
        self.stats.lookups += 1
        self.stats.candidates += len(ids)
        return ids


def default_grid(bbox: BBox, cell_deg: float = 0.25) -> EquiGrid:
    """The standard link-discovery grid over an area of interest."""
    return EquiGrid.with_cell_size(bbox, cell_deg)
