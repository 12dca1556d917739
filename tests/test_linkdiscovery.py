"""Tests for link discovery: blocking, masks, refinement, streaming."""

import pytest

from repro.datasources.ports import Port
from repro.datasources.regions import Region
from repro.geo import BBox, GeoPoint, Polygon, PositionFix
from repro.linkdiscovery import (
    CellMasks,
    MovingProximityDiscoverer,
    NEAR_TO,
    PortLinkDiscoverer,
    RegionBlocks,
    RegionLinkDiscoverer,
    WITHIN,
    default_grid,
)

BOX = BBox(0.0, 0.0, 10.0, 10.0)


def fix(t, lon, lat, eid="v1"):
    return PositionFix(entity_id=eid, t=t, lon=lon, lat=lat)


def square_region(rid, lon0, lat0, size=1.0):
    poly = Polygon([(lon0, lat0), (lon0 + size, lat0), (lon0 + size, lat0 + size), (lon0, lat0 + size)])
    return Region(region_id=rid, name=rid, kind="natura2000", polygon=poly)


class TestRegionBlocks:
    def test_region_assigned_to_overlapping_cells(self):
        grid = default_grid(BOX, cell_deg=1.0)
        blocks = RegionBlocks([square_region("r1", 2.2, 2.2, size=1.5)], grid)
        assert blocks.occupied_cells() >= 4

    def test_candidates_found(self):
        grid = default_grid(BOX, cell_deg=1.0)
        blocks = RegionBlocks([square_region("r1", 2.0, 2.0)], grid)
        assert [r.region_id for r in blocks.candidates(2.5, 2.5)] == ["r1"]
        assert blocks.candidates(8.0, 8.0) == []


class TestCellMasks:
    def test_point_far_from_regions_in_mask(self):
        grid = default_grid(BOX, cell_deg=1.0)
        blocks = RegionBlocks([square_region("r1", 2.0, 2.0)], grid)
        masks = CellMasks(blocks)
        assert masks.in_mask(9.5, 9.5)   # empty cell
        assert not masks.in_mask(2.5, 2.5)  # right on the region

    def test_mask_within_partially_covered_cell(self):
        # Small region in the corner of a big cell: the rest of the cell is free.
        grid = default_grid(BOX, cell_deg=2.0)
        blocks = RegionBlocks([square_region("r1", 0.0, 0.0, size=0.2)], grid)
        masks = CellMasks(blocks, resolution=8)
        assert not masks.in_mask(0.1, 0.1)
        assert masks.in_mask(1.8, 1.8)   # same cell, far corner: pruned by mask

    def test_mask_never_prunes_a_real_match(self):
        """Safety: any point actually inside a region must not be in the mask."""
        grid = default_grid(BOX, cell_deg=1.0)
        regions = [square_region(f"r{i}", i * 0.8, i * 0.7, size=0.6) for i in range(8)]
        blocks = RegionBlocks(regions, grid)
        masks = CellMasks(blocks, resolution=8)
        for region in regions:
            cx, cy = region.polygon.centroid()
            assert not masks.in_mask(cx, cy)

    def test_prune_rate_counted(self):
        grid = default_grid(BOX, cell_deg=1.0)
        blocks = RegionBlocks([square_region("r1", 2.0, 2.0)], grid)
        masks = CellMasks(blocks)
        masks.in_mask(9.0, 9.0)
        masks.in_mask(2.5, 2.5)
        assert masks.stats.pruned == 1

    def test_coverage_fraction(self):
        grid = default_grid(BOX, cell_deg=1.0)
        blocks = RegionBlocks([square_region("r1", 2.0, 2.0, size=1.0)], grid)
        masks = CellMasks(blocks, resolution=4)
        cell_id = grid.cell_id(2.5, 2.5)
        assert masks.coverage_fraction(cell_id) == pytest.approx(1.0)

    def test_invalid_resolution(self):
        grid = default_grid(BOX, cell_deg=1.0)
        blocks = RegionBlocks([square_region("r1", 2.0, 2.0)], grid)
        with pytest.raises(ValueError):
            CellMasks(blocks, resolution=0)


class TestRegionLinkDiscoverer:
    def make(self, use_masks=True):
        regions = [square_region("r1", 2.0, 2.0), square_region("r2", 6.0, 6.0)]
        return RegionLinkDiscoverer(regions, BOX, cell_deg=1.0, use_masks=use_masks)

    def test_within_link(self):
        ld = self.make()
        result = ld.discover([fix(0.0, 2.5, 2.5)])
        assert result.count(WITHIN) == 1
        assert result.links[0].target_id == "r1"

    def test_outside_no_link(self):
        ld = self.make()
        result = ld.discover([fix(0.0, 4.5, 4.5)])
        assert result.links == []

    def test_masks_do_not_change_results(self):
        points = [fix(float(i), 0.5 + (i % 20) * 0.5, 0.5 + (i % 17) * 0.55, eid=f"v{i%3}") for i in range(200)]
        with_masks = self.make(use_masks=True).discover(points)
        without = self.make(use_masks=False).discover(points)
        assert sorted((l.source_id, l.target_id, l.relation) for l in with_masks.links) == sorted(
            (l.source_id, l.target_id, l.relation) for l in without.links
        )

    def test_masks_reduce_refinements(self):
        points = [fix(float(i), 0.25 + (i % 40) * 0.25, 0.25 + (i % 37) * 0.26) for i in range(400)]
        with_masks = self.make(use_masks=True).discover(points)
        without = self.make(use_masks=False).discover(points)
        assert with_masks.refinements < without.refinements

    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            RegionLinkDiscoverer([], BOX)


class TestPortLinkDiscoverer:
    def test_near_port(self):
        ports = [Port("p1", "P1", "ES", GeoPoint(5.0, 5.0), 1000.0)]
        ld = PortLinkDiscoverer(ports, BOX, threshold_m=20_000.0, cell_deg=0.5)
        result = ld.discover([fix(0.0, 5.05, 5.05), fix(1.0, 9.0, 9.0)])
        assert result.count(NEAR_TO) == 1
        assert result.links[0].distance_m < 20_000.0

    def test_threshold_respected(self):
        ports = [Port("p1", "P1", "ES", GeoPoint(5.0, 5.0), 1000.0)]
        ld = PortLinkDiscoverer(ports, BOX, threshold_m=1000.0, cell_deg=0.5)
        result = ld.discover([fix(0.0, 5.1, 5.0)])  # ~11 km away
        assert result.links == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PortLinkDiscoverer([], BOX, threshold_m=100.0)
        with pytest.raises(ValueError):
            PortLinkDiscoverer([Port("p", "P", "ES", GeoPoint(1, 1), 10.0)], BOX, threshold_m=0.0)


class TestMovingProximity:
    def make(self):
        return MovingProximityDiscoverer(BOX, space_threshold_m=10_000.0, time_threshold_s=300.0, cell_deg=0.5)

    def test_near_pair_found(self):
        ld = self.make()
        assert ld.process(fix(0.0, 5.0, 5.0, eid="a")) == []
        links = ld.process(fix(60.0, 5.05, 5.0, eid="b"))  # ~5.5 km, 60 s apart
        assert len(links) == 1
        assert {links[0].source_id, links[0].target_id} == {"a", "b"}

    def test_far_pair_ignored(self):
        ld = self.make()
        ld.process(fix(0.0, 1.0, 1.0, eid="a"))
        assert ld.process(fix(10.0, 9.0, 9.0, eid="b")) == []

    def test_temporal_scope_evicts(self):
        ld = self.make()
        ld.process(fix(0.0, 5.0, 5.0, eid="a"))
        links = ld.process(fix(10_000.0, 5.01, 5.0, eid="b"))  # way out of time scope
        assert links == []
        assert ld.stats.evicted >= 1
        assert ld.live_entries() == 1

    def test_self_links_suppressed(self):
        ld = self.make()
        ld.process(fix(0.0, 5.0, 5.0, eid="a"))
        assert ld.process(fix(30.0, 5.01, 5.0, eid="a")) == []

    def test_discover_counts(self):
        ld = self.make()
        pts = [fix(float(i * 30), 5.0 + 0.001 * i, 5.0, eid=f"v{i % 2}") for i in range(10)]
        result = ld.discover(pts)
        assert result.entities_processed == 10
        assert result.count(NEAR_TO) > 0

    def test_discover_reports_its_own_comparisons(self):
        # Regression: discover() reported the cumulative stats.comparisons,
        # so a second run on the same discoverer counted the first's too.
        # The second batch is the first one, out of the first's time scope.
        ld = self.make()
        pts = [fix(float(i * 30), 5.0 + 0.001 * i, 5.0, eid=f"v{i % 3}") for i in range(10)]
        first = ld.discover(pts)
        second = ld.discover([fix(p.t + 10_000.0, p.lon, p.lat, eid=p.entity_id) for p in pts])
        assert first.refinements > 0
        assert second.refinements == first.refinements
        assert ld.stats.comparisons == first.refinements + second.refinements

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            MovingProximityDiscoverer(BOX, 0.0, 10.0)


class TestDiscoveryObservability:
    """Per-run reporting and counter parity between the discoverers."""

    def _region_ld(self, registry=None):
        regions = [square_region("r1", 2.0, 2.0), square_region("r2", 6.0, 6.0)]
        return RegionLinkDiscoverer(regions, BOX, cell_deg=1.0, use_masks=True, registry=registry)

    def test_mask_pruned_is_per_run_not_cumulative(self):
        # Regression: discover() used to report the masks' *cumulative*
        # stats.pruned, so a second run on the same discoverer inflated
        # its mask_pruned by everything the first run already pruned.
        ld = self._region_ld()
        fixes = [fix(float(i), 0.5 + (i % 20) * 0.5, 0.5 + (i % 17) * 0.55) for i in range(200)]
        first = ld.discover(fixes)
        second = ld.discover(fixes)
        assert first.mask_pruned > 0
        assert second.mask_pruned == first.mask_pruned
        assert ld.masks.stats.pruned == first.mask_pruned + second.mask_pruned

    def test_entities_counter_parity_region_vs_port(self):
        # Both discoverers count an entity on entry — before pruning or
        # refinement — so their `entities` counters are comparable even
        # when no fix produces a link.
        from repro.obs import MetricsRegistry

        reg_region, reg_port = MetricsRegistry(), MetricsRegistry()
        region_ld = self._region_ld(registry=reg_region)
        ports = [Port("p1", "P1", "ES", GeoPoint(5.0, 5.0), 1000.0)]
        port_ld = PortLinkDiscoverer(ports, BOX, threshold_m=1000.0, cell_deg=0.5, registry=reg_port)
        fixes = [fix(float(i), 9.5, 9.5) for i in range(7)]  # far from everything
        assert region_ld.discover(fixes).links == []
        assert port_ld.discover(fixes).links == []
        assert reg_region.counter("linkdiscovery.region.entities").value == 7
        assert reg_port.counter("linkdiscovery.port.entities").value == 7
        for n, f in enumerate(fixes, start=8):
            port_ld.links_for(f)
            region_ld.links_for(f)
        assert reg_region.counter("linkdiscovery.region.entities").value == 14
        assert reg_port.counter("linkdiscovery.port.entities").value == 14
