"""Numpy batch kernels for the geo layer (the vectorized fast path).

The paper's E4 experiment (Section 4.2.4) is throughput-bound on
geometric predicates: haversine distances, point-in-polygon refinement,
grid assignment. The scalar implementations in :mod:`.geometry`,
:mod:`.grid` are the per-point APIs — what the real-time layer runs on
the fixes its column screen cannot clear, and the equivalence reference
``tests/test_geo_vectorized.py`` holds every kernel to — while the
functions here evaluate the same formulas over whole coordinate arrays
in one numpy pass.

Parity contract (what "equivalent" means, kernel by kernel)
-----------------------------------------------------------
* **Pure-arithmetic predicates are bit-for-bit.** Point-in-ring
  (even-odd), bbox containment, grid cell assignment, heading
  normalisation (``fmod`` is exact) and mask sub-cell lookup use only
  ``+ - * /``, comparisons and truncation; every expression here mirrors
  the scalar operation order, so the verdicts are identical down to the
  last ulp on every platform.
* **Transcendental kernels are last-ulp equivalent.** ``np.arcsin`` /
  ``np.arctan2`` (and, on some SIMD builds, ``np.sin``/``np.cos``) may
  differ from the ``math`` module by one ulp, so haversine distances and
  bearings agree to ~1e-12 relative rather than exactly.
* **An exact predicate from a last-ulp kernel: slack and refine.** A
  threshold verdict derived from such a kernel (or from a sum taken in
  another order) is final only when the value clears the threshold by
  ``SCREEN_SLACK``, far wider than the kernel's error; a value inside the
  band goes to the scalar function, whose verdict *is* the definition.
  The column screens of ``repro.insitu.quality`` and
  ``repro.synopses.detector`` are built this way.

Truncation convention: the scalar code indexes with ``int(x)``
(truncation toward zero); kernels mirror that with ``astype(int64)``,
never ``floor`` — the two differ for negative operands, and clamped
results must match the scalar path exactly.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .units import EARTH_RADIUS_M

#: Relative slack of the slack-and-refine rule: six orders wider than the
#: kernels' disagreement with ``math`` or a non-negative sum's reordering.
SCREEN_SLACK = 1e-6

__all__ = [
    "SCREEN_SLACK",
    "as_array",
    "as_lonlat",
    "haversine_m_batch",
    "initial_bearing_deg_batch",
    "heading_difference_batch",
    "ring_contains_batch",
]


def as_array(values: Iterable[float] | np.ndarray) -> np.ndarray:
    """Coerce a coordinate sequence to a contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def as_lonlat(
    lons: Iterable[float] | np.ndarray, lats: Iterable[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce paired lon/lat sequences to equal-shape float64 arrays."""
    lon = as_array(lons)
    lat = as_array(lats)
    if lon.shape != lat.shape:
        raise ValueError(f"lon/lat shape mismatch: {lon.shape} vs {lat.shape}")
    return lon, lat


# -- geodesics ---------------------------------------------------------------------


def haversine_m_batch(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Great-circle distances in metres; broadcasting twin of ``haversine_m``.

    Mirrors the scalar formula (including the antipodal clamp) operation
    by operation; agrees with the scalar path to the last ulp of
    ``asin`` (see the module parity contract).
    """
    lon1, lat1 = np.asarray(lon1, np.float64), np.asarray(lat1, np.float64)
    lon2, lat2 = np.asarray(lon2, np.float64), np.asarray(lat2, np.float64)
    phi1 = lat1 * math.pi / 180.0
    phi2 = lat2 * math.pi / 180.0
    dphi = (lat2 - lat1) * math.pi / 180.0
    dlmb = (lon2 - lon1) * math.pi / 180.0
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlmb / 2.0) ** 2
    # Clamp for numerical safety near antipodal points (scalar twin does too).
    np.clip(a, 0.0, 1.0, out=a)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def initial_bearing_deg_batch(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Initial bearings in [0, 360); broadcasting twin of ``initial_bearing_deg``."""
    lon1, lat1 = np.asarray(lon1, np.float64), np.asarray(lat1, np.float64)
    lon2, lat2 = np.asarray(lon2, np.float64), np.asarray(lat2, np.float64)
    phi1 = lat1 * math.pi / 180.0
    phi2 = lat2 * math.pi / 180.0
    dlmb = (lon2 - lon1) * math.pi / 180.0
    y = np.sin(dlmb) * np.cos(phi2)
    x = np.cos(phi1) * np.sin(phi2) - np.sin(phi1) * np.cos(phi2) * np.cos(dlmb)
    deg = np.arctan2(y, x) * 180.0 / math.pi
    return np.where(deg < 0.0, deg + 360.0, deg)


def heading_difference_batch(a, b) -> np.ndarray:
    """Smallest absolute angular differences in [0, 180]; bit-for-bit twin
    of ``heading_difference`` (``fmod`` is exact, the rest is arithmetic)."""

    def normalize(deg):
        h = np.fmod(np.asarray(deg, np.float64), 360.0)
        h = np.where(h < 0.0, h + 360.0, h)
        return np.where(h >= 360.0, 0.0, h)

    d = np.abs(normalize(a) - normalize(b))
    return np.where(d > 180.0, 360.0 - d, d)


# -- point-in-ring (even-odd, boundary-inclusive) ----------------------------------


def ring_contains_batch(
    edges: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    lons: np.ndarray,
    lats: np.ndarray,
) -> np.ndarray:
    """Even-odd point-in-ring verdicts for all points against all edges.

    Bit-for-bit twin of ``geometry._ring_contains``: the crossing
    abscissa is evaluated with the identical expression, the on-vertex /
    on-edge shortcuts use the same exact comparisons, and the parity is
    the count of strict ``lon < x_cross`` crossings. Cost is
    O(edges x points) in one numpy pass.
    """
    x1, y1, x2, y2 = edges
    lon = lons[:, None]
    lat = lats[:, None]
    on_vertex = ((lon == x1) & (lat == y1)).any(axis=1)
    crosses = (y1 > lat) != (y2 > lat)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
    on_edge = (crosses & (np.abs(x_cross - lon) < 1e-15)).any(axis=1)
    parity = (crosses & (lon < x_cross)).sum(axis=1) & 1
    return on_vertex | on_edge | (parity == 1)
