"""Cell masks: the paper's key link-discovery optimization (Section 4.2.4).

For each grid cell, the *mask* is the complement — within the cell — of
the union of the spatial areas of the stationary entities blocked with
that cell (the green area of the paper's Figure 4). A new moving entity
is first tested against the mask of its enclosing cell: if it falls in
the mask, **no candidate pair in that cell can match**, and all
refinement comparisons are skipped. The paper reports this raising
throughput from 23.09 to 123.51 entities/s.

The mask is realized as a per-cell bitmap over an ``n x n`` sub-grid: a
sub-cell is *free* (in the mask) iff no candidate geometry overlaps it.
Coverage is computed by scanline polygon rasterization — a supercover of
every boundary edge plus an even-odd interior fill — which marks exactly
the sub-cells the polygon intersects (boundary sub-cells come from the
edge traversal, fully-interior sub-cells from the fill), in
O(vertices + covered sub-cells) per region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocking import RegionBlocks


@dataclass
class MaskStats:
    """How often the mask pruned all refinement work."""

    tested: int = 0
    pruned: int = 0


class CellMasks:
    """Per-cell coverage bitmaps over the blocked region set."""

    def __init__(self, blocks: RegionBlocks, resolution: int = 16):
        if resolution < 1:
            raise ValueError("mask resolution must be >= 1")
        self.blocks = blocks
        self.grid = blocks.grid
        self.resolution = resolution
        # cell_id -> bitmask of covered sub-cells (bit set = covered, NOT mask).
        self._coverage: dict[int, int] = {}
        self._build_batch()
        # Cells that have blocked candidates but no materialized coverage
        # must still have an all-free bitmap entry: "no entry" means "no
        # candidates" to the fast path below.
        for cell_id in self.blocks._cell_to_regions:
            self._coverage.setdefault(cell_id, 0)
        # cell_id -> (bits, min_lon, min_lat, inv_dx, inv_dy): precomputed so
        # the hot in_mask lookup allocates nothing.
        self._lookup: dict[int, tuple[int, float, float, float, float]] = {}
        for cell_id, bits in self._coverage.items():
            box = self.grid.cell_of_id(cell_id).box
            self._lookup[cell_id] = (
                bits,
                box.min_lon,
                box.min_lat,
                self.resolution / box.width,
                self.resolution / box.height,
            )
        self.stats = MaskStats()
        # Aligned arrays for in_mask_batch, built lazily on first use.
        self._tables: tuple[np.ndarray, ...] | None = None

    # -- construction -------------------------------------------------------------

    def _build_batch(self) -> None:
        """Canvas-based coverage build: row-run numpy fills.

        Marks all regions into one boolean sub-grid canvas — the boundary
        supercover stays per-edge (it is O(vertices)), but the interior
        scanline spans are whole-row slice assignments — then packs each
        grid cell's ``res x res`` block into a little-endian bitmap (bit
        index ``(sr % res) * res + (sc % res)``).
        ``tests/oracles/cell_masks.py`` marks the same sub-cells one at a
        time and must yield byte-identical bitmaps.
        """
        res = self.resolution
        grid = self.grid
        sub_cols = grid.cols * res
        sub_rows = grid.rows * res
        inv_dx = sub_cols / grid.bbox.width
        inv_dy = sub_rows / grid.bbox.height
        min_lon, min_lat = grid.bbox.min_lon, grid.bbox.min_lat
        canvas = np.zeros((sub_rows, sub_cols), dtype=bool)

        def mark(sc: int, sr: int) -> None:
            if 0 <= sc < sub_cols and 0 <= sr < sub_rows:
                canvas[sr, sc] = True

        for region in self.blocks.regions:
            ring = region.polygon.vertices
            n = len(ring)
            for i in range(n):
                ax, ay = ring[i]
                bx, by = ring[(i + 1) % n]
                _supercover(
                    (ax - min_lon) * inv_dx,
                    (ay - min_lat) * inv_dy,
                    (bx - min_lon) * inv_dx,
                    (by - min_lat) * inv_dy,
                    mark,
                )
            box = region.polygon.bbox
            r0 = max(0, int((box.min_lat - min_lat) * inv_dy))
            r1 = min(sub_rows - 1, int((box.max_lat - min_lat) * inv_dy))
            for sr in range(r0, r1 + 1):
                y = min_lat + (sr + 0.5) / inv_dy
                crossings: list[float] = []
                for i in range(n):
                    x1, y1 = ring[i]
                    x2, y2 = ring[(i + 1) % n]
                    if (y1 > y) != (y2 > y):
                        crossings.append(x1 + (y - y1) * (x2 - x1) / (y2 - y1))
                crossings.sort()
                for j in range(0, len(crossings) - 1, 2):
                    c_start = max(0, int((crossings[j] - min_lon) * inv_dx))
                    c_end = min(sub_cols - 1, int((crossings[j + 1] - min_lon) * inv_dx))
                    if c_end >= c_start:
                        canvas[sr, c_start : c_end + 1] = True

        # Pack each grid cell's res x res block into its bitmap.
        blocks4 = canvas.reshape(grid.rows, res, grid.cols, res).transpose(0, 2, 1, 3)
        covered = blocks4.any(axis=(2, 3))
        for row, col in np.argwhere(covered):
            block = np.ascontiguousarray(blocks4[row, col])
            packed = np.packbits(block.reshape(-1), bitorder="little")
            self._coverage[int(row) * grid.cols + int(col)] = int.from_bytes(packed.tobytes(), "little")

    # -- querying -----------------------------------------------------------------

    def in_mask(self, lon: float, lat: float) -> bool:
        """True iff the point lies in the *free* part of its cell.

        A True verdict guarantees no blocked geometry can match the point,
        so the caller may skip refinement entirely.
        """
        self.stats.tested += 1
        cell_id = self.grid.cell_id(lon, lat)
        entry = self._lookup.get(cell_id)
        if entry is None:
            # No candidates blocked with this cell at all: trivially in mask.
            self.stats.pruned += 1
            return True
        bits, min_lon, min_lat, inv_dx, inv_dy = entry
        res = self.resolution
        c = int((lon - min_lon) * inv_dx)
        r = int((lat - min_lat) * inv_dy)
        if c < 0:
            c = 0
        elif c >= res:
            c = res - 1
        if r < 0:
            r = 0
        elif r >= res:
            r = res - 1
        free = not (bits & (1 << (r * res + c)))
        if free:
            self.stats.pruned += 1
        return free

    def _ensure_tables(self) -> tuple[np.ndarray, ...]:
        """Aligned per-entry arrays over ``_lookup`` for the batch fast path.

        ``_lookup`` is immutable after construction, so this is built
        once: a sorted cell-id array for ``searchsorted`` resolution, the
        per-entry sub-grid transforms, and the coverage bits unpacked to
        a ``(entries, res, res)`` boolean cube (bit ``r*res + c`` of the
        scalar int maps to ``cov[e, r, c]``).
        """
        if self._tables is not None:
            return self._tables
        res = self.resolution
        ids = np.sort(np.fromiter(self._lookup.keys(), dtype=np.int64, count=len(self._lookup)))
        n = ids.size
        min_lon = np.empty(n, dtype=np.float64)
        min_lat = np.empty(n, dtype=np.float64)
        inv_dx = np.empty(n, dtype=np.float64)
        inv_dy = np.empty(n, dtype=np.float64)
        nbytes = (res * res + 7) // 8
        cov = np.zeros((n, res, res), dtype=bool)
        for e, cell_id in enumerate(ids.tolist()):
            bits, lo, la, ix, iy = self._lookup[cell_id]
            min_lon[e], min_lat[e], inv_dx[e], inv_dy[e] = lo, la, ix, iy
            if bits:
                raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
                cov[e] = np.unpackbits(raw, bitorder="little")[: res * res].reshape(res, res)
        self._tables = (ids, min_lon, min_lat, inv_dx, inv_dy, cov)
        return self._tables

    def in_mask_batch(self, lons, lats) -> np.ndarray:
        """Vectorized :meth:`in_mask`: per-point free/covered verdicts.

        Resolves every point's cell id, sub-cell and coverage bit in one
        numpy pass — bit-for-bit identical verdicts to the scalar twin
        (pure truncation arithmetic and bit tests), and the same
        ``stats`` deltas: ``tested`` grows by the batch size, ``pruned``
        by the number of True verdicts.
        """
        lon = np.ascontiguousarray(lons, dtype=np.float64)
        lat = np.ascontiguousarray(lats, dtype=np.float64)
        n = lon.size
        self.stats.tested += n
        ids, e_min_lon, e_min_lat, e_inv_dx, e_inv_dy, cov = self._ensure_tables()
        verdict = np.ones(n, dtype=bool)
        if ids.size:
            cell_ids = self.grid.cell_ids_batch(lon, lat)
            pos = np.minimum(np.searchsorted(ids, cell_ids), ids.size - 1)
            found = ids[pos] == cell_ids
            if found.any():
                e = pos[found]
                res = self.resolution
                c = ((lon[found] - e_min_lon[e]) * e_inv_dx[e]).astype(np.int64)
                r = ((lat[found] - e_min_lat[e]) * e_inv_dy[e]).astype(np.int64)
                np.clip(c, 0, res - 1, out=c)
                np.clip(r, 0, res - 1, out=r)
                verdict[found] = ~cov[e, r, c]
        self.stats.pruned += int(verdict.sum())
        return verdict

    def coverage_fraction(self, cell_id: int) -> float:
        """Fraction of a cell's sub-cells covered by candidate geometry."""
        bits = self._coverage.get(cell_id, 0)
        return bin(bits).count("1") / (self.resolution * self.resolution)


def _supercover(x0: float, y0: float, x1: float, y1: float, mark) -> None:
    """Mark every sub-cell a segment passes through (Amanatides-Woo traversal)."""
    cx, cy = int(math.floor(x0)), int(math.floor(y0))
    ex, ey = int(math.floor(x1)), int(math.floor(y1))
    mark(cx, cy)
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    # Parametric distance to the next vertical/horizontal sub-cell boundary.
    t_max_x = math.inf if dx == 0 else ((cx + (step_x > 0)) - x0) / dx
    t_max_y = math.inf if dy == 0 else ((cy + (step_y > 0)) - y0) / dy
    t_delta_x = math.inf if dx == 0 else abs(1.0 / dx)
    t_delta_y = math.inf if dy == 0 else abs(1.0 / dy)
    # Bounded loop: a segment crosses at most |ex-cx| + |ey-cy| boundaries.
    for _ in range(abs(ex - cx) + abs(ey - cy) + 2):
        if cx == ex and cy == ey:
            break
        if t_max_x < t_max_y:
            t_max_x += t_delta_x
            cx += step_x
        elif t_max_y < t_max_x:
            t_max_y += t_delta_y
            cy += step_y
        else:
            # Exact corner crossing: mark both adjacent cells (conservative).
            mark(cx + step_x, cy)
            mark(cx, cy + step_y)
            t_max_x += t_delta_x
            t_max_y += t_delta_y
            cx += step_x
            cy += step_y
        mark(cx, cy)
