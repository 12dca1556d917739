"""The per-cell polygon/box overlap test: the oracle of ``rasterize_polygon``.

``repro.geo.EquiGrid.rasterize_polygon`` decides every candidate cell of
a polygon at once, stage by stage. This is the scalar predicate it
mirrors — vertex in box, box corner in polygon, polygon edge crossing a
box edge — evaluated one cell box at a time, which the vectorized ids
must equal exactly.
"""

from __future__ import annotations

from repro.geo import BBox, Polygon


def intersects_bbox(polygon: Polygon, box: BBox) -> bool:
    """Whether the polygon overlaps the bbox (conservative exact test)."""
    if not polygon.bbox.intersects(box):
        return False
    if any(box.contains(lon, lat) for lon, lat in polygon.vertices):
        return True
    corners = (
        (box.min_lon, box.min_lat),
        (box.min_lon, box.max_lat),
        (box.max_lon, box.min_lat),
        (box.max_lon, box.max_lat),
    )
    if any(polygon.contains(lon, lat) for lon, lat in corners):
        return True
    box_edges = (
        (corners[0], corners[1]),
        (corners[1], corners[3]),
        (corners[3], corners[2]),
        (corners[2], corners[0]),
    )
    return any(
        segments_intersect(e1[0], e1[1], e2[0], e2[1])
        for e1 in polygon.edges()
        for e2 in box_edges
    )


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Cross-product orientation of the triple (a, b, c)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(a: tuple[float, float], b: tuple[float, float], p: tuple[float, float]) -> bool:
    """Whether collinear point p lies within segment ab's bounding box."""
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def segments_intersect(
    a: tuple[float, float], b: tuple[float, float], c: tuple[float, float], d: tuple[float, float]
) -> bool:
    """Whether segment ab intersects segment cd (touching counts)."""
    d1 = _orient(*c, *d, *a)
    d2 = _orient(*c, *d, *b)
    d3 = _orient(*a, *b, *c)
    d4 = _orient(*a, *b, *d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    return (
        (d1 == 0 and _on_segment(c, d, a))
        or (d2 == 0 and _on_segment(c, d, b))
        or (d3 == 0 and _on_segment(a, b, c))
        or (d4 == 0 and _on_segment(a, b, d))
    )
