"""Synthetic geographical region sets (the shapefile surrogate).

The paper's link-discovery experiment (Section 4.2.4) runs against
8,599 Natura2000 + fishing regions around Europe, and Figure 4 shows
those regions clustered along coastal bands. This module generates a
region set with the same statistical character: many small protected
areas plus some large fishing zones, clustered around a configurable
set of "coastline" anchor bands rather than spread uniformly — which
is exactly what makes the cell-mask optimization effective (cells far
from regions get an empty mask and prune immediately).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..geo import BBox, Polygon

#: The default area of interest: a Mediterranean-like basin.
DEFAULT_BBOX = BBox(-6.0, 30.0, 30.0, 46.0)

REGION_KINDS = ("natura2000", "fishing_zone", "anchorage", "protected_area", "traffic_separation")
_KIND_WEIGHTS = (0.55, 0.20, 0.10, 0.10, 0.05)


@dataclass(frozen=True, slots=True)
class Region:
    """A named stationary area with polygon geometry."""

    region_id: str
    name: str
    kind: str
    polygon: Polygon

    @property
    def bbox(self) -> BBox:
        return self.polygon.bbox


def _random_blob(rng: random.Random, cx: float, cy: float, radius_deg: float, n_vertices: int) -> Polygon:
    """An irregular star-convex polygon around (cx, cy)."""
    pts = []
    for k in range(n_vertices):
        angle = 2.0 * math.pi * k / n_vertices
        r = radius_deg * rng.uniform(0.55, 1.0)
        pts.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return Polygon(pts)


def _random_strip(rng: random.Random, cx: float, cy: float, half_length_deg: float, n_vertices: int) -> Polygon:
    """A thin, elongated, jittered strip — the coastal-band region shape.

    Strips have a large bounding box but cover little of it, which is the
    geometry regime where the link-discovery cell masks pay off (most of a
    grid cell crossed by a strip is mask — free of actual coverage).
    """
    angle = rng.uniform(0.0, math.pi)
    dx, dy = math.cos(angle), math.sin(angle)
    width = half_length_deg * rng.uniform(0.04, 0.15)
    half = max(3, n_vertices // 2)
    upper, lower = [], []
    for k in range(half):
        f = -1.0 + 2.0 * k / (half - 1)
        px = cx + f * half_length_deg * dx
        py = cy + f * half_length_deg * dy
        bend = math.sin(f * math.pi) * half_length_deg * 0.15
        jitter = rng.uniform(0.6, 1.0) * width
        upper.append((px - dy * (jitter + bend), py + dx * (jitter + bend)))
        lower.append((px + dy * (jitter - bend), py - dx * (jitter - bend)))
    return Polygon(upper + lower[::-1])


def _coastal_anchors(rng: random.Random, bbox: BBox, n_bands: int) -> list[tuple[float, float, float]]:
    """Anchor bands (cx, cy, spread) along which regions cluster."""
    anchors = []
    for _ in range(n_bands):
        cx = rng.uniform(bbox.min_lon, bbox.max_lon)
        cy = rng.uniform(bbox.min_lat, bbox.max_lat)
        spread = rng.uniform(1.5, 3.0)
        anchors.append((cx, cy, spread))
    return anchors


def generate_regions(
    n: int = 8599,
    bbox: BBox = DEFAULT_BBOX,
    seed: int = 42,
    vertex_range: tuple[int, int] = (16, 64),
) -> list[Region]:
    """Generate ``n`` regions, 85 % of them clustered in 25 coastal bands.

    Region radii are log-normal: mostly sub-0.1-degree protected areas with a
    heavy tail of multi-degree fishing zones, matching the mixture visible in
    the paper's Figure 4 mask plot.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(seed)
    anchors = _coastal_anchors(rng, bbox, 25)
    regions: list[Region] = []
    margin = 0.5
    for i in range(n):
        kind = rng.choices(REGION_KINDS, weights=_KIND_WEIGHTS)[0]
        if rng.random() < 0.85 and anchors:
            cx0, cy0, spread = rng.choice(anchors)
            cx = rng.gauss(cx0, spread)
            cy = rng.gauss(cy0, spread * 0.6)
        else:
            cx = rng.uniform(bbox.min_lon, bbox.max_lon)
            cy = rng.uniform(bbox.min_lat, bbox.max_lat)
        cx = min(max(cx, bbox.min_lon + margin), bbox.max_lon - margin)
        cy = min(max(cy, bbox.min_lat + margin), bbox.max_lat - margin)
        base_radius = math.exp(rng.gauss(-3.4, 0.7))  # median ~0.033 deg
        if kind == "fishing_zone":
            base_radius *= 2.0
        radius = min(base_radius, 0.5)
        # Real Natura2000 boundaries are vertex-heavy, and about half are
        # elongated coastal strips whose bounding box dwarfs their area —
        # the refinement cost against them is what cell masks amortize.
        n_vertices = rng.randint(*vertex_range)
        if kind in ("natura2000", "traffic_separation") and rng.random() < 0.7:
            poly = _random_strip(rng, cx, cy, max(radius * 3.0, 0.05), n_vertices)
        else:
            poly = _random_blob(rng, cx, cy, radius, n_vertices)
        regions.append(Region(region_id=f"region-{i:05d}", name=f"{kind}-{i:05d}", kind=kind, polygon=poly))
    return regions
