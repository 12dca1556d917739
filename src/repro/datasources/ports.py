"""Synthetic port registry (the "Port Registers" source of Table 1).

The paper's archival port register holds 5,754 distinct ports; the
link-discovery nearTo experiment uses 3,865 of them. Ports are point
entities with a small harbour radius, clustered along the same coastal
bands as the region generator so that nearTo joins have realistic
selectivity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..geo import BBox, GeoPoint

from .regions import DEFAULT_BBOX, _coastal_anchors


@dataclass(frozen=True, slots=True)
class Port:
    """A named port with location and approach radius."""

    port_id: str
    name: str
    country: str
    location: GeoPoint
    radius_m: float


_COUNTRIES = ("ES", "FR", "IT", "GR", "HR", "MT", "TR", "TN", "MA", "EG")


def generate_ports(n: int = 5754, bbox: BBox = DEFAULT_BBOX, seed: int = 17) -> list[Port]:
    """Generate ``n`` ports clustered along 14 coastal bands."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(seed)
    anchors = _coastal_anchors(rng, bbox, 14)
    ports: list[Port] = []
    for i in range(n):
        cx0, cy0, spread = rng.choice(anchors)
        lon = min(max(rng.gauss(cx0, spread), bbox.min_lon), bbox.max_lon)
        lat = min(max(rng.gauss(cy0, spread * 0.6), bbox.min_lat), bbox.max_lat)
        ports.append(
            Port(
                port_id=f"port-{i:04d}",
                name=f"PORT-{i:04d}",
                country=rng.choice(_COUNTRIES),
                location=GeoPoint(lon, lat),
                radius_m=rng.uniform(500.0, 3000.0),
            )
        )
    return ports
