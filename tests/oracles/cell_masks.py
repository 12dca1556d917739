"""The one-sub-cell-at-a-time cell-mask build: the oracle of ``CellMasks``.

``repro.linkdiscovery.masks.CellMasks`` rasterizes every region into one
boolean canvas with whole-row numpy fills and packs each cell's block
into a bitmap. This is the build it replaced — a ``mark(sub_col,
sub_row)`` per covered sub-cell, OR-ing one bit at a time — kept as the
reference the canvas build must match byte for byte. The boundary
supercover traversal is shared (both builds call it per edge); the
interior fill and the bit packing are not.
"""

from __future__ import annotations

from repro.linkdiscovery.blocking import RegionBlocks
from repro.linkdiscovery.masks import _supercover


def scalar_coverage(blocks: RegionBlocks, resolution: int) -> dict[int, int]:
    """cell id -> bitmap of covered sub-cells, marked one sub-cell at a time."""
    coverage: dict[int, int] = {}
    res = resolution
    grid = blocks.grid
    sub_cols = grid.cols * res
    sub_rows = grid.rows * res
    inv_dx = sub_cols / grid.bbox.width
    inv_dy = sub_rows / grid.bbox.height
    min_lon, min_lat = grid.bbox.min_lon, grid.bbox.min_lat

    def mark(sc: int, sr: int) -> None:
        if not (0 <= sc < sub_cols and 0 <= sr < sub_rows):
            return
        cell_id = (sr // res) * grid.cols + (sc // res)
        bit = 1 << ((sr % res) * res + (sc % res))
        coverage[cell_id] = coverage.get(cell_id, 0) | bit

    for region in blocks.regions:
        ring = region.polygon.vertices
        n = len(ring)
        # 1) Supercover of every boundary edge.
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
        # 2) Even-odd interior fill along sub-row centre scanlines.
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
                c_start = int((crossings[j] - min_lon) * inv_dx)
                c_end = int((crossings[j + 1] - min_lon) * inv_dx)
                for sc in range(max(0, c_start), min(sub_cols - 1, c_end) + 1):
                    mark(sc, sr)
    return coverage
