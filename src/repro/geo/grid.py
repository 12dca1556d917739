"""Equi-grid spatial partitioning.

The paper uses equi-grids in two places:

* link discovery (Section 4.2.4) organizes entities by space partitioning
  into an equi-grid, with per-cell "masks" that prune refinement work, and
* the knowledge-graph store (Section 4.2.5) encodes the approximate
  position of an entity as the integer id of the spatio-temporal cell it
  falls into.

Both are backed by this module: a uniform lon/lat grid over a bounding
box, with stable integer cell ids, neighbourhood queries, and polygon
rasterization (the set of cells a polygon overlaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import kernels
from .geometry import BBox, Polygon
from .units import metres_per_degree_lat, metres_per_degree_lon


@dataclass(frozen=True, slots=True)
class Cell:
    """A single grid cell, addressed by (col, row) with a stable integer id."""

    col: int
    row: int
    cell_id: int
    box: BBox


class EquiGrid:
    """A uniform grid over a geographic bounding box.

    Cell ids are row-major integers: ``cell_id = row * cols + col``. Points
    outside the bounding box are clamped to the border cells, which mirrors
    how streaming surveillance systems treat slightly out-of-area fixes.
    """

    def __init__(self, bbox: BBox, cols: int, rows: int):
        if cols < 1 or rows < 1:
            raise ValueError("grid must have at least one column and one row")
        self.bbox = bbox
        self.cols = cols
        self.rows = rows
        self._dx = bbox.width / cols
        self._dy = bbox.height / rows
        if self._dx <= 0 or self._dy <= 0:
            raise ValueError("grid over a zero-extent bbox")

    @classmethod
    def with_cell_size(cls, bbox: BBox, cell_deg: float) -> "EquiGrid":
        """Build a grid whose cells are approximately ``cell_deg`` degrees wide."""
        if cell_deg <= 0:
            raise ValueError("cell size must be positive")
        cols = max(1, round(bbox.width / cell_deg))
        rows = max(1, round(bbox.height / cell_deg))
        return cls(bbox, cols, rows)

    def __len__(self) -> int:
        return self.cols * self.rows

    def __repr__(self) -> str:
        return f"EquiGrid({self.cols}x{self.rows} over {self.bbox})"

    def cell_size_m(self) -> tuple[float, float]:
        """Approximate (width, height) of a cell in metres at the bbox centre."""
        lat = self.bbox.center[1]
        return self._dx * metres_per_degree_lon(lat), self._dy * metres_per_degree_lat()

    def locate(self, lon: float, lat: float) -> tuple[int, int]:
        """The (col, row) of the cell containing the point (clamped to grid)."""
        col = int((lon - self.bbox.min_lon) / self._dx)
        row = int((lat - self.bbox.min_lat) / self._dy)
        return min(max(col, 0), self.cols - 1), min(max(row, 0), self.rows - 1)

    def cell_id(self, lon: float, lat: float) -> int:
        """The integer id of the cell containing the point."""
        col, row = self.locate(lon, lat)
        return row * self.cols + col

    def locate_batch(self, lons, lats) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate`: (col, row) int64 arrays, clamped.

        Truncation uses ``astype(int64)`` (toward zero) to match the
        scalar ``int()`` exactly, including for out-of-grid fixes whose
        pre-clamp index is negative.
        """
        lon, lat = kernels.as_lonlat(lons, lats)
        col = ((lon - self.bbox.min_lon) / self._dx).astype(np.int64)
        row = ((lat - self.bbox.min_lat) / self._dy).astype(np.int64)
        np.clip(col, 0, self.cols - 1, out=col)
        np.clip(row, 0, self.rows - 1, out=row)
        return col, row

    def cell_ids_batch(self, lons, lats) -> np.ndarray:
        """Vectorized :meth:`cell_id`; bit-for-bit twin of the scalar path."""
        col, row = self.locate_batch(lons, lats)
        return row * self.cols + col

    def cell_of_id(self, cell_id: int) -> Cell:
        """Materialize a Cell from its integer id."""
        if not 0 <= cell_id < len(self):
            raise ValueError(f"cell id {cell_id} out of range [0, {len(self)})")
        row, col = divmod(cell_id, self.cols)
        return Cell(col, row, cell_id, self.cell_box(col, row))

    def cell_box(self, col: int, row: int) -> BBox:
        """The bounding box of cell (col, row)."""
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise ValueError(f"cell ({col},{row}) out of range")
        min_lon = self.bbox.min_lon + col * self._dx
        min_lat = self.bbox.min_lat + row * self._dy
        return BBox(min_lon, min_lat, min_lon + self._dx, min_lat + self._dy)

    def neighbours(self, col: int, row: int, radius: int = 1) -> Iterator[tuple[int, int]]:
        """Yield the (col, row) of cells within Chebyshev ``radius`` (self included)."""
        for r in range(max(0, row - radius), min(self.rows, row + radius + 1)):
            for c in range(max(0, col - radius), min(self.cols, col + radius + 1)):
                yield c, r

    def neighbour_ids(self, cell_id: int, radius: int = 1) -> list[int]:
        """Neighbour cell ids (self included) within Chebyshev ``radius``."""
        row, col = divmod(cell_id, self.cols)
        return [r * self.cols + c for c, r in self.neighbours(col, row, radius)]

    def cells_overlapping_bbox(self, box: BBox) -> Iterator[tuple[int, int]]:
        """All (col, row) whose cell box intersects the given bbox.

        A box disjoint from the grid extent overlaps nothing: without this
        check, the clamping in :meth:`locate` would map an out-of-area
        query onto border cells and fabricate phantom overlaps.
        """
        if not self.bbox.intersects(box):
            return
        c0, r0 = self.locate(box.min_lon, box.min_lat)
        c1, r1 = self.locate(box.max_lon, box.max_lat)
        for row in range(r0, r1 + 1):
            for col in range(c0, c1 + 1):
                yield col, row

    def rasterize_polygon(self, polygon: Polygon) -> list[int]:
        """Ids of all cells whose box intersects the polygon, row-major.

        Used by link discovery to assign stationary regions to blocks and to
        build cell masks, and by the KG store to index region geometries.
        Evaluates the per-cell overlap test of
        ``tests/oracles/polygon_cells.py`` over every cell of
        :meth:`cells_overlapping_bbox` at once: each stage (vertex-in-box,
        corner-in-polygon, edge-crossing) mirrors the per-cell predicate's
        arithmetic exactly (pure products and comparisons), so the ids
        equal that loop's bit-for-bit.
        """
        if not self.bbox.intersects(polygon.bbox):
            return []
        c0, r0 = self.locate(polygon.bbox.min_lon, polygon.bbox.min_lat)
        c1, r1 = self.locate(polygon.bbox.max_lon, polygon.bbox.max_lat)
        cols = np.arange(c0, c1 + 1, dtype=np.int64)
        rows = np.arange(r0, r1 + 1, dtype=np.int64)
        # Row-major candidate cells, matching cells_overlapping_bbox order.
        col = np.tile(cols, rows.size)
        row = np.repeat(rows, cols.size)
        box_min_lon = self.bbox.min_lon + col * self._dx
        box_min_lat = self.bbox.min_lat + row * self._dy
        box_max_lon = box_min_lon + self._dx
        box_max_lat = box_min_lat + self._dy

        verts = np.asarray(polygon.vertices, dtype=np.float64)
        vx, vy = verts[:, 0], verts[:, 1]
        pb = polygon.bbox
        # Stage 0: polygon bbox vs cell box (cells_overlapping_bbox makes
        # this vacuously true, but the per-cell test evaluates it, so we do).
        hit = ~(
            (pb.min_lon > box_max_lon)
            | (pb.max_lon < box_min_lon)
            | (pb.min_lat > box_max_lat)
            | (pb.max_lat < box_min_lat)
        )
        # Stage 1: any polygon vertex inside the cell box.
        undecided = np.flatnonzero(hit)
        in_box = (
            (box_min_lon[undecided, None] <= vx)
            & (vx <= box_max_lon[undecided, None])
            & (box_min_lat[undecided, None] <= vy)
            & (vy <= box_max_lat[undecided, None])
        ).any(axis=1)
        decided_hit = np.zeros(hit.shape, dtype=bool)
        decided_hit[undecided[in_box]] = True
        undecided = undecided[~in_box]
        # Stage 2: any cell corner inside the polygon.
        if undecided.size:
            cor_lon = np.stack(
                [box_min_lon[undecided], box_min_lon[undecided], box_max_lon[undecided], box_max_lon[undecided]],
                axis=1,
            )
            cor_lat = np.stack(
                [box_min_lat[undecided], box_max_lat[undecided], box_min_lat[undecided], box_max_lat[undecided]],
                axis=1,
            )
            corner_in = polygon.contains_batch(cor_lon.ravel(), cor_lat.ravel()).reshape(-1, 4).any(axis=1)
            decided_hit[undecided[corner_in]] = True
            undecided = undecided[~corner_in]
        # Stage 3: any polygon edge crossing a cell-box edge.
        if undecided.size:
            crossing = self._box_edges_cross_polygon(
                polygon,
                box_min_lon[undecided],
                box_min_lat[undecided],
                box_max_lon[undecided],
                box_max_lat[undecided],
            )
            decided_hit[undecided[crossing]] = True
        ids = row * self.cols + col
        return [int(i) for i in ids[hit & decided_hit]]

    @staticmethod
    def _box_edges_cross_polygon(
        polygon: Polygon,
        min_lon: np.ndarray,
        min_lat: np.ndarray,
        max_lon: np.ndarray,
        max_lat: np.ndarray,
    ) -> np.ndarray:
        """Whether any polygon edge intersects any edge of each box.

        Vectorized twin of the oracle's ``segments_intersect`` over the
        (box-edge x polygon-edge) cross product: identical orientation
        products, proper-crossing test and collinear on-segment checks.
        """
        verts = np.asarray(polygon.vertices, dtype=np.float64)
        ax, ay = verts[:, 0], verts[:, 1]
        bx, by = np.roll(ax, -1), np.roll(ay, -1)
        # The four box edges, in the per-cell test's corner order.
        cx = np.stack([min_lon, min_lon, max_lon, max_lon], axis=1).reshape(-1, 1)
        cy = np.stack([min_lat, max_lat, max_lat, min_lat], axis=1).reshape(-1, 1)
        dx = np.stack([min_lon, max_lon, max_lon, min_lon], axis=1).reshape(-1, 1)
        dy = np.stack([max_lat, max_lat, min_lat, min_lat], axis=1).reshape(-1, 1)
        # Orientation products, matching the oracle's _orient operand order.
        d1 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
        d2 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
        d3 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        d4 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
        proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
            ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
        )
        lo_x, hi_x = np.minimum(cx, dx), np.maximum(cx, dx)
        lo_y, hi_y = np.minimum(cy, dy), np.maximum(cy, dy)
        on_cd_a = (lo_x <= ax) & (ax <= hi_x) & (lo_y <= ay) & (ay <= hi_y)
        on_cd_b = (lo_x <= bx) & (bx <= hi_x) & (lo_y <= by) & (by <= hi_y)
        plo_x, phi_x = np.minimum(ax, bx), np.maximum(ax, bx)
        plo_y, phi_y = np.minimum(ay, by), np.maximum(ay, by)
        on_ab_c = (plo_x <= cx) & (cx <= phi_x) & (plo_y <= cy) & (cy <= phi_y)
        on_ab_d = (plo_x <= dx) & (dx <= phi_x) & (plo_y <= dy) & (dy <= phi_y)
        touch = (
            ((d1 == 0) & on_cd_a)
            | ((d2 == 0) & on_cd_b)
            | ((d3 == 0) & on_ab_c)
            | ((d4 == 0) & on_ab_d)
        )
        return (proper | touch).any(axis=1).reshape(-1, 4).any(axis=1)

    def radius_to_cells(self, radius_m: float) -> int:
        """How many cell rings are needed to cover a metre radius.

        Conservative: uses the smaller cell dimension so that a
        ``radius_m`` ball around any point in a cell is fully covered by
        the returned Chebyshev radius of cells.
        """
        if radius_m <= 0:
            return 0
        w_m, h_m = self.cell_size_m()
        smallest = max(1e-9, min(w_m, h_m))
        return int(radius_m / smallest) + 1


class SpatioTemporalGrid:
    """A 3-D (lon, lat, time) partitioning built on an EquiGrid.

    This backs the KG store's dictionary encoding (Section 4.2.5): the
    approximate position of a moving entity becomes a single integer —
    the id of the spatio-temporal cell it occupies — so that range
    constraints can be evaluated on encoded ids without touching the
    underlying geometry literals.
    """

    def __init__(self, grid: EquiGrid, t_origin: float, t_step_s: float, t_slots: int):
        if t_step_s <= 0:
            raise ValueError("temporal step must be positive")
        if t_slots < 1:
            raise ValueError("need at least one temporal slot")
        self.grid = grid
        self.t_origin = t_origin
        self.t_step_s = t_step_s
        self.t_slots = t_slots

    def __len__(self) -> int:
        return len(self.grid) * self.t_slots

    def t_slot(self, t: float) -> int:
        """The temporal slot index of timestamp ``t`` (clamped)."""
        slot = int((t - self.t_origin) / self.t_step_s)
        return min(max(slot, 0), self.t_slots - 1)

    def cell_id(self, lon: float, lat: float, t: float) -> int:
        """The spatio-temporal cell id of a (lon, lat, t) sample."""
        return self.t_slot(t) * len(self.grid) + self.grid.cell_id(lon, lat)

    def ids_for_range(self, box: BBox, t_min: float, t_max: float) -> set[int]:
        """All spatio-temporal cell ids overlapping a (bbox, time-interval) range."""
        if t_max < t_min:
            raise ValueError("t_max must be >= t_min")
        spatial = [row * self.grid.cols + col for col, row in self.grid.cells_overlapping_bbox(box)]
        s0, s1 = self.t_slot(t_min), self.t_slot(t_max)
        n = len(self.grid)
        return {slot * n + cell for slot in range(s0, s1 + 1) for cell in spatial}
