"""Equivalence of the numpy geo/link-discovery batch kernels and the per-point APIs.

Every kernel in ``repro.geo.kernels`` (and every ``*_batch`` method /
batch ``discover`` built on them) is held to the per-point production
API it batches — ``haversine_m``, ``Polygon.contains``, ``EquiGrid.cell_id``,
``CellMasks.in_mask``, ``links_for`` ... — or, for the cell-mask build,
to the reference under ``tests/oracles/``. These properties pin the
contract documented in the kernels module:

* pure-arithmetic predicates — point-in-ring, bbox containment, grid
  assignment, mask bits — are
  **bit-for-bit** identical;
* transcendental kernels (haversine, bearing) agree to the last ulp of
  ``asin``/``atan2``;
* the batched discovery paths screen with those kernels and refine
  with the per-point predicates, so their links (order and distances
  included) and stats/counter deltas equal the per-point paths exactly.
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasources.ports import Port
from repro.datasources.regions import Region
from repro.geo import (
    BBox,
    EquiGrid,
    FixColumns,
    GeoPoint,
    Polygon,
    PositionFix,
    haversine_m,
    heading_difference,
    initial_bearing_deg,
)
from repro.geo.geometry import _ring_contains
from repro.geo.kernels import (
    haversine_m_batch,
    heading_difference_batch,
    initial_bearing_deg_batch,
    ring_contains_batch,
)
from repro.linkdiscovery.blocking import RegionBlocks
from repro.linkdiscovery.discoverer import DiscoveryResult, PortLinkDiscoverer, RegionLinkDiscoverer
from repro.linkdiscovery.masks import CellMasks
from repro.linkdiscovery.streaming import MovingProximityDiscoverer
from repro.obs import MetricsRegistry

from tests.oracles.cell_masks import scalar_coverage
from tests.oracles.polygon_cells import intersects_bbox

BOX = BBox(0.0, 0.0, 10.0, 10.0)

lonlats = st.lists(
    st.tuples(st.floats(-180.0, 180.0), st.floats(-89.0, 89.0)),
    min_size=1,
    max_size=40,
)

seeds = st.integers(0, 2**31 - 1)


def star_polygon(seed: int, cx: float = 5.0, cy: float = 5.0) -> Polygon:
    """A random simple (star-shaped) polygon around (cx, cy)."""
    rng = random.Random(seed)
    nv = rng.randint(3, 20)
    verts = [
        (
            cx + rng.uniform(0.3, 2.5) * math.cos(2 * math.pi * k / nv),
            cy + rng.uniform(0.3, 2.5) * math.sin(2 * math.pi * k / nv),
        )
        for k in range(nv)
    ]
    return Polygon(verts)


def probe_points(seed: int, polygon: Polygon, n: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Random points plus the polygon's own vertices and edge midpoints."""
    rng = random.Random(seed)
    pts = [(rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)) for _ in range(n)]
    pts.extend(polygon.vertices)
    for (x1, y1), (x2, y2) in polygon.edges():
        pts.append(((x1 + x2) / 2.0, (y1 + y2) / 2.0))
    arr = np.asarray(pts, dtype=np.float64)
    return arr[:, 0], arr[:, 1]


# -- geodesic kernels ---------------------------------------------------------------


class TestGeodesicKernels:
    @given(pairs=st.lists(st.tuples(st.floats(-180, 180), st.floats(-90, 90),
                                    st.floats(-180, 180), st.floats(-90, 90)),
                          min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_haversine_m_batch_matches_scalar(self, pairs):
        arr = np.asarray(pairs, dtype=np.float64)
        batch = haversine_m_batch(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
        scalar = np.asarray([haversine_m(*p) for p in pairs])
        assert np.allclose(batch, scalar, rtol=1e-12, atol=1e-6)
        assert not np.isnan(batch).any()

    def test_haversine_m_batch_antipodal_clamp(self):
        # Antipodal pairs push the haversine argument to (and past) 1.0;
        # both paths clamp, neither returns NaN.
        lon1 = np.array([0.0, -90.0, 45.0])
        lat1 = np.array([0.0, 0.0, 30.0])
        lon2 = np.array([180.0, 90.0, -135.0])
        lat2 = np.array([0.0, 0.0, -30.0])
        batch = haversine_m_batch(lon1, lat1, lon2, lat2)
        scalar = [haversine_m(a, b, c, d) for a, b, c, d in zip(lon1, lat1, lon2, lat2)]
        assert np.allclose(batch, scalar, rtol=1e-12)
        assert not np.isnan(batch).any()

    @given(pairs=st.lists(st.tuples(st.floats(-180, 180), st.floats(-89, 89),
                                    st.floats(-180, 180), st.floats(-89, 89)),
                          min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_initial_bearing_deg_batch_matches_scalar(self, pairs):
        arr = np.asarray(pairs, dtype=np.float64)
        batch = initial_bearing_deg_batch(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
        scalar = np.asarray([initial_bearing_deg(*p) for p in pairs])
        assert np.allclose(batch, scalar, rtol=1e-9, atol=1e-9)
        # The scalar twin's `% 360` can land exactly on 360.0 for a bearing
        # that is a hair below zero; the batch path reproduces it faithfully.
        assert ((batch >= 0.0) & (batch <= 360.0)).all()

    @given(pairs=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40))
    def test_heading_difference_batch_is_bit_for_bit(self, pairs):
        pairs += [(350.0, 10.0), (360.0 - 1e-16, 0.0), (-0.0, 360.0), (720.5, -90.0)]
        arr = np.asarray(pairs, dtype=np.float64)
        assert heading_difference_batch(arr[:, 0], arr[:, 1]).tolist() == [heading_difference(a, b) for a, b in pairs]


# -- fixes as columns ---------------------------------------------------------------


class TestFixColumns:
    """The struct-of-arrays layout the column screens and the pooled frames share."""

    FIXES = (
        PositionFix("a", 0.0, 1.0, 2.0, speed=3.0),
        PositionFix("b", 1, 1.5, 2.5, heading=float("nan")),        # an int timestamp: odd
        PositionFix("a", 2.0, -0.0, 2.0, alt=float("inf"), vrate=0.5),
        PositionFix("c", 3.0, 1.0, 2.0),
        PositionFix("a", 4.0, 1.0, 2.0, speed="fast"),              # odd
    )

    def test_values_and_keys_give_the_fixes_back(self):
        cols = FixColumns.of(self.FIXES)
        assert cols.keys() == [f.entity_id for f in self.FIXES] and cols.entity_ids == ["a", "b", "c"]
        for j, name in enumerate(("t", "lon", "lat", "alt", "speed", "heading", "vrate")):
            assert repr(cols.values(j)) == repr([getattr(f, name) for f in self.FIXES])   # repr: NaN, -0.0, int
        assert sorted((j, i) for j, i, _ in cols.odd) == [(0, 1), (4, 4)]
        assert not cols.valid[4, [1, 2, 3, 4]].any() and cols.valid[4, 0]

    def test_runs_and_predecessors_link_each_entity_in_arrival_order(self):
        cols = FixColumns.of(self.FIXES)
        order, starts, counts = cols.runs
        assert order.tolist() == [0, 2, 4, 1, 3] and starts.tolist() == [0, 3, 4] and counts.tolist() == [3, 1, 1]
        assert cols.predecessors.tolist() == [-1, -1, 0, -1, 2]
        empty = FixColumns.of([])
        assert len(empty) == 0 and empty.runs[1].tolist() == [] and empty.predecessors.tolist() == []

    def test_take_is_the_columns_of_the_subset(self):
        rows = np.array([1, 2, 4])
        got, want = FixColumns.of(self.FIXES).take(rows), FixColumns.of([self.FIXES[i] for i in rows])
        assert got.keys() == want.keys() and sorted(got.odd) == sorted(want.odd)
        assert all(repr(got.values(j)) == repr(want.values(j)) for j in range(7))
        assert got.predecessors.tolist() == want.predecessors.tolist() == [-1, -1, 1]


# -- point-in-polygon ---------------------------------------------------------------


class TestPointInPolygon:
    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_ring_contains_batch_bit_for_bit(self, seed):
        polygon = star_polygon(seed)
        lons, lats = probe_points(seed + 1, polygon)
        batch = ring_contains_batch(polygon._edge_arrays(), lons, lats)
        scalar = [_ring_contains(polygon.vertices, x, y) for x, y in zip(lons.tolist(), lats.tolist())]
        assert batch.tolist() == scalar

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_contains_batch_and_contains_exact_batch_bit_for_bit(self, seed):
        # Probes include boundary points and polygon vertices.
        polygon = star_polygon(seed)
        lons, lats = probe_points(seed + 2, polygon)
        exact = polygon.contains_exact_batch(lons, lats)
        full = polygon.contains_batch(lons, lats)
        pts = list(zip(lons.tolist(), lats.tolist()))
        assert exact.tolist() == [polygon.contains_exact(x, y) for x, y in pts]
        assert full.tolist() == [polygon.contains(x, y) for x, y in pts]

    @given(points=lonlats)
    @settings(max_examples=40, deadline=None)
    def test_bbox_contains_batch_bit_for_bit(self, points):
        box = BBox(-20.0, -10.0, 30.0, 40.0)
        arr = np.asarray(points, dtype=np.float64)
        batch = box.contains_batch(arr[:, 0], arr[:, 1])
        assert batch.tolist() == [box.contains(x, y) for x, y in points]


# -- distances ----------------------------------------------------------------------


# -- projection and grid kernels ----------------------------------------------------


def per_cell_rasterize(grid: EquiGrid, polygon: Polygon) -> list[int]:
    """``rasterize_polygon`` one cell at a time, with the oracle's overlap test."""
    return [
        row * grid.cols + col
        for col, row in grid.cells_overlapping_bbox(polygon.bbox)
        if intersects_bbox(polygon, grid.cell_box(col, row))
    ]


class TestProjectionAndGrid:

    @given(points=st.lists(st.tuples(st.floats(-5.0, 15.0), st.floats(-5.0, 15.0)),
                           min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_locate_batch_and_cell_ids_batch_bit_for_bit(self, points):
        # The domain extends past the grid: out-of-grid fixes clamp to the
        # border cells identically on both paths (trunc-toward-zero).
        grid = EquiGrid(BOX, 13, 7)
        arr = np.asarray(points, dtype=np.float64)
        cols, rows = grid.locate_batch(arr[:, 0], arr[:, 1])
        scalar = [grid.locate(x, y) for x, y in points]
        assert cols.tolist() == [s[0] for s in scalar]
        assert rows.tolist() == [s[1] for s in scalar]
        ids = grid.cell_ids_batch(arr[:, 0], arr[:, 1])
        assert ids.tolist() == [grid.cell_id(x, y) for x, y in points]

    @given(seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_rasterize_polygon_vectorized_equivalence(self, seed):
        grid = EquiGrid(BOX, 16, 16)
        polygon = star_polygon(seed)
        assert grid.rasterize_polygon(polygon) == per_cell_rasterize(grid, polygon)

    def test_rasterize_polygon_disjoint_bbox(self):
        grid = EquiGrid(BOX, 8, 8)
        far = Polygon([(20.0, 20.0), (21.0, 20.0), (20.5, 21.0)])
        assert grid.rasterize_polygon(far) == per_cell_rasterize(grid, far) == []


# -- cell masks ---------------------------------------------------------------------


def _regions(seed: int, count: int = 8) -> list[Region]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        poly = star_polygon(rng.randint(0, 2**30), cx=rng.uniform(1.0, 9.0), cy=rng.uniform(1.0, 9.0))
        out.append(Region(f"r{i}", f"region-{i}", "test", poly))
    return out


class TestCellMasks:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_build_equivalence(self, seed):
        # The canvas build must produce byte-identical coverage bitmaps to
        # the mark-loop reference (cells blocked but uncovered carry an
        # all-free bitmap in CellMasks and no entry in the reference).
        grid = EquiGrid(BOX, 10, 10)
        blocks = RegionBlocks(_regions(seed), grid)
        masks = CellMasks(blocks, resolution=8)
        covered = {cell: bits for cell, bits in masks._coverage.items() if bits}
        assert covered == scalar_coverage(blocks, 8)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_in_mask_batch_verdicts_and_stats_deltas(self, seed):
        grid = EquiGrid(BOX, 10, 10)
        blocks = RegionBlocks(_regions(seed), grid)
        masks = CellMasks(blocks, resolution=8)
        oracle = CellMasks(blocks, resolution=8)
        rng = random.Random(seed + 9)
        n = rng.randint(1, 200)
        lons = np.asarray([rng.uniform(-1.0, 11.0) for _ in range(n)])
        lats = np.asarray([rng.uniform(-1.0, 11.0) for _ in range(n)])
        batch = masks.in_mask_batch(lons, lats)
        scalar = [oracle.in_mask(x, y) for x, y in zip(lons.tolist(), lats.tolist())]
        assert batch.tolist() == scalar
        assert masks.stats.pruned == oracle.stats.pruned == sum(scalar)

    def test_in_mask_batch_empty_lookup_prunes_everything(self):
        grid = EquiGrid(BOX, 4, 4)
        blocks = RegionBlocks(_regions(1, count=1), grid)
        masks = CellMasks(blocks, resolution=4)
        masks._lookup = {}
        masks._tables = None
        verdict = masks.in_mask_batch(np.array([1.0, 5.0]), np.array([1.0, 5.0]))
        assert verdict.tolist() == [True, True]
        assert masks.stats.pruned == 2


# -- end-to-end discovery -----------------------------------------------------------


def _fixes(seed: int, n: int) -> list[PositionFix]:
    rng = random.Random(seed)
    return [
        PositionFix(f"e{i % 37}", float(i), rng.uniform(-0.5, 10.5), rng.uniform(-0.5, 10.5))
        for i in range(n)
    ]


def per_point_discover(discoverer, fixes) -> DiscoveryResult:
    """``discover`` as the real-time layer runs it: ``links_for`` per point."""
    masks = getattr(discoverer, "masks", None)
    links, refinements = [], 0
    for fix in fixes:
        found, r = discoverer.links_for(fix)
        links += found
        refinements += r
    pruned = masks.stats.pruned if masks is not None else 0
    return DiscoveryResult(links, len(fixes), 0.0, refinements, mask_pruned=pruned)


class TestDiscovererEquivalence:
    @given(seed=seeds, use_masks=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_region_discover_vectorized_equivalence(self, seed, use_masks):
        regions = _regions(seed, count=10)
        reg_fast, reg_slow = MetricsRegistry(), MetricsRegistry()
        fast = RegionLinkDiscoverer(regions, BOX, use_masks=use_masks, registry=reg_fast)
        slow = RegionLinkDiscoverer(regions, BOX, use_masks=use_masks, registry=reg_slow)
        fixes = _fixes(seed + 1, 400)
        res_fast = fast.discover(fixes)
        res_slow = per_point_discover(slow, fixes)
        # The same links in the same order, distances included: the batch
        # screens with numpy and refines with the per-fix predicates.
        assert res_fast.links == res_slow.links
        assert res_fast.entities_processed == res_slow.entities_processed
        assert res_fast.refinements == res_slow.refinements
        assert res_fast.mask_pruned == res_slow.mask_pruned
        if use_masks:
            assert fast.masks.stats == slow.masks.stats
        for metric in ("entities", "candidate_pairs", "links", "mask_pruned"):
            name = f"linkdiscovery.region.{metric}"
            assert reg_fast.counter(name).value == reg_slow.counter(name).value

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_port_discover_vectorized_equivalence(self, seed):
        rng = random.Random(seed)
        ports = [
            Port(f"p{i}", f"port-{i}", "XX", GeoPoint(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5)), 5000.0)
            for i in range(15)
        ]
        reg_fast, reg_slow = MetricsRegistry(), MetricsRegistry()
        fast = PortLinkDiscoverer(ports, BOX, threshold_m=12_000.0, registry=reg_fast)
        slow = PortLinkDiscoverer(ports, BOX, threshold_m=12_000.0, registry=reg_slow)
        fixes = _fixes(seed + 2, 300)
        res_fast = fast.discover(fixes)
        res_slow = per_point_discover(slow, fixes)
        # The same links in the same order, each distance the scalar
        # haversine's own.
        assert res_fast.links == res_slow.links
        assert res_fast.refinements == res_slow.refinements
        for metric in ("entities", "candidate_pairs", "links"):
            name = f"linkdiscovery.port.{metric}"
            assert reg_fast.counter(name).value == reg_slow.counter(name).value

    @given(
        points=st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 3_000.0), st.floats(4.0, 6.0), st.floats(4.0, 6.0)),
            max_size=60,
        ),
        time_ordered=st.booleans(),
        cuts=st.lists(st.integers(0, 60), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_proximity_process_many_is_the_process_loop(self, points, time_ordered, cuts):
        # Out of order is how the layer feeds proximity across polls: each
        # poll's points are sorted, but a poll may reach back behind the
        # last one's; a 300-s scope over 3 000 s of fixes evicts either way.
        fixes = [PositionFix(f"e{k}", t, lon, lat) for k, t, lon, lat in points]
        if time_ordered:
            fixes.sort(key=lambda fix: fix.t)
        one, many = (MovingProximityDiscoverer(BOX, 10_000.0, 300.0, cell_deg=0.5) for _ in range(2))
        want = [one.process(fix) for fix in fixes]
        cuts = sorted(cuts)
        got = [links for a, b in zip([0, *cuts], [*cuts, len(fixes)]) for links in many.process_many(fixes[a:b])]
        assert got == want
        assert many.stats == one.stats
        assert many.live_entries() == one.live_entries()
        assert {c: list(q) for c, q in many._cells.items()} == {c: list(q) for c, q in one._cells.items()}
