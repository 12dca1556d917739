"""Trajectory similarity: ERP with a semantic (enrichment) component.

The SemT-OPTICS clustering of Section 5 decomposes the similarity of two
enriched points into a spatio-temporal part and an enrichment part,
combining them with an Edit-distance-with-Real-Penalty (ERP, the paper's
[10]) variant over the point sequences. ERP is a proper metric (unlike
DTW) because gaps are charged against a *fixed* reference value ``g``:
with a metric ground distance and a constant ``g``, ERP satisfies the
triangle inequality and is symmetric.

All distances are computed in a fixed global equirectangular frame (a
constant linear map of lon/lat degrees to kilometres), so the ground
distance is the same metric for every pair — a requirement for using
ERP inside OPTICS.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..geo.units import metres_per_degree_lat

from .features import EnrichedPoint

#: Kilometres per degree in the fixed frame (equator-scaled equirectangular).
_KM_PER_DEG = metres_per_degree_lat() / 1000.0

#: The fixed ERP gap reference point: the lon/lat origin.
_G_LON, _G_LAT = 0.0, 0.0


def _spatial_km(a_lon: float, a_lat: float, b_lon: float, b_lat: float) -> float:
    """Ground metric: scaled Euclidean distance on lon/lat, in km."""
    return math.hypot(a_lon - b_lon, a_lat - b_lat) * _KM_PER_DEG


def point_distance(
    a: EnrichedPoint,
    b: EnrichedPoint,
    spatial_weight: float = 1.0,
    semantic_weight: float = 0.0,
) -> float:
    """Weighted spatial + enrichment distance between two enriched points.

    The spatial part is the fixed-frame distance in km; the semantic part
    is the Euclidean distance of the covariate vectors.
    """
    spatial = _spatial_km(a.lon, a.lat, b.lon, b.lat)
    semantic = 0.0
    if semantic_weight > 0.0 and a.covariates and b.covariates:
        n = min(len(a.covariates), len(b.covariates))
        semantic = math.sqrt(sum((a.covariates[i] - b.covariates[i]) ** 2 for i in range(n)))
    return spatial_weight * spatial + semantic_weight * semantic


def _gap_cost(p: EnrichedPoint, spatial_weight: float, semantic_weight: float) -> float:
    """ERP gap penalty: full distance of the point to the fixed reference g.

    The reference carries zero covariates, so a gap also pays the semantic
    norm of the dropped point (keeps the metric property in the combined
    space).
    """
    cost = spatial_weight * _spatial_km(p.lon, p.lat, _G_LON, _G_LAT)
    if semantic_weight > 0.0 and p.covariates:
        cost += semantic_weight * math.sqrt(sum(c * c for c in p.covariates))
    return cost


def erp_distance(
    seq_a: Sequence[EnrichedPoint],
    seq_b: Sequence[EnrichedPoint],
    spatial_weight: float = 1.0,
    semantic_weight: float = 0.0,
) -> float:
    """ERP distance between two enriched point sequences.

    O(len(a) * len(b)) dynamic program. Empty-vs-empty is 0; empty-vs-X is
    the total gap cost of X.
    """
    n, m = len(seq_a), len(seq_b)
    prev = [0.0] * (m + 1)
    for j in range(1, m + 1):
        prev[j] = prev[j - 1] + _gap_cost(seq_b[j - 1], spatial_weight, semantic_weight)
    for i in range(1, n + 1):
        gap_a_cost = _gap_cost(seq_a[i - 1], spatial_weight, semantic_weight)
        cur = [prev[0] + gap_a_cost] + [0.0] * m
        for j in range(1, m + 1):
            match = prev[j - 1] + point_distance(seq_a[i - 1], seq_b[j - 1], spatial_weight, semantic_weight)
            gap_a = prev[j] + gap_a_cost
            gap_b = cur[j - 1] + _gap_cost(seq_b[j - 1], spatial_weight, semantic_weight)
            cur[j] = min(match, gap_a, gap_b)
        prev = cur
    return prev[m]


def flight_distance(a, b) -> float:
    """ERP distance between two flights' enriched reference points, with
    the covariates weighted 0.05 against the kilometres."""
    return erp_distance(a.points, b.points, 1.0, 0.05)
