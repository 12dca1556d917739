"""The link-discovery engine: blocking + optional masks + refinement.

Reproduces the E4 experiment (Section 4.2.4): discovering
``dul:within`` and ``geosparql:nearTo`` relations between a stream of
critical points and a static set of regions/ports, with and without
cell masks, measuring throughput in entities (points) per second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..datasources.ports import Port
from ..datasources.regions import Region
from ..geo import BBox, EquiGrid, PositionFix, kernels

from .blocking import PortBlocks, RegionBlocks, default_grid
from .masks import CellMasks
from .relations import Link, NEAR_TO, WITHIN, point_near_port, point_near_region, point_within_region


@dataclass
class DiscoveryResult:
    """Links found plus the performance counters the paper reports."""

    links: list[Link]
    entities_processed: int
    wall_seconds: float
    refinements: int
    mask_pruned: int = 0

    @property
    def throughput_entities_s(self) -> float:
        return self.entities_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def count(self, relation: str) -> int:
        return sum(1 for link in self.links if link.relation == relation)


class _DiscoveryCounters:
    """The ``linkdiscovery.<name>.*`` counter bundle (candidate/pruned pairs).

    One per discoverer when a ``repro.obs.MetricsRegistry`` is attached;
    ``None`` otherwise so the hot path stays branch-cheap.
    """

    __slots__ = ("entities", "candidates", "links", "mask_pruned")

    def __init__(self, registry, name: str):
        self.entities = registry.counter(f"linkdiscovery.{name}.entities")
        self.candidates = registry.counter(f"linkdiscovery.{name}.candidate_pairs")
        self.links = registry.counter(f"linkdiscovery.{name}.links")
        self.mask_pruned = registry.counter(f"linkdiscovery.{name}.mask_pruned")


class RegionLinkDiscoverer:
    """within/nearTo discovery between moving points and stationary regions."""

    def __init__(
        self,
        regions: Sequence[Region],
        bbox: BBox,
        cell_deg: float = 0.25,
        near_threshold_m: float = 0.0,
        use_masks: bool = True,
        mask_resolution: int = 8,
        registry=None,
        metrics_name: str = "region",
    ):
        if not regions:
            raise ValueError("no regions to link against")
        self.near_threshold_m = near_threshold_m
        self.grid: EquiGrid = default_grid(bbox, cell_deg)
        self.blocks = RegionBlocks(list(regions), self.grid, near_margin_m=near_threshold_m)
        self.masks = (
            CellMasks(self.blocks, resolution=mask_resolution, near_margin_m=near_threshold_m)
            if use_masks
            else None
        )
        self._counters = _DiscoveryCounters(registry, metrics_name) if registry is not None else None

    def links_for(self, fix: PositionFix) -> tuple[list[Link], int]:
        """Links of one point; returns (links, refinement_count)."""
        counters = self._counters
        if counters is not None:
            counters.entities.inc()
        if self.masks is not None and self.masks.in_mask(fix.lon, fix.lat):
            if counters is not None:
                counters.mask_pruned.inc()
            return [], 0
        links: list[Link] = []
        refinements = 0
        for region in self.blocks.candidates(fix.lon, fix.lat):
            refinements += 1
            if point_within_region(fix, region):
                links.append(Link(fix.entity_id, region.region_id, WITHIN, fix.t, 0.0))
            elif self.near_threshold_m > 0.0:
                near, d = point_near_region(fix, region, self.near_threshold_m)
                if near:
                    links.append(Link(fix.entity_id, region.region_id, NEAR_TO, fix.t, d))
        if counters is not None:
            counters.candidates.inc(refinements)
            if links:
                counters.links.inc(len(links))
        return links, refinements

    def discover(self, fixes: Iterable[PositionFix]) -> DiscoveryResult:
        """Run over a bounded point batch, measuring throughput.

        Mask-prunes the whole batch in one shot, then groups survivors by
        cell and refines each candidate region with the batched
        point-in-polygon / boundary-distance kernels. A loop over
        :meth:`links_for` (the per-point API the real-time layer runs)
        produces the same link set, prune verdicts and counter deltas;
        the batch's link ordering groups by region.

        ``mask_pruned`` reports this run's prunes only: the mask stats
        are snapshotted at entry, so consecutive ``discover()`` calls on
        one discoverer no longer inflate each other's counts.
        """
        pruned_before = self.masks.stats.pruned if self.masks is not None else 0
        start = time.perf_counter()
        links, n, refinements = self._discover_batch(list(fixes))
        elapsed = time.perf_counter() - start
        pruned = self.masks.stats.pruned - pruned_before if self.masks is not None else 0
        return DiscoveryResult(links, n, elapsed, refinements, mask_pruned=pruned)

    def _discover_batch(self, fixes: list[PositionFix]) -> tuple[list[Link], int, int]:
        """One-shot mask pruning + per-cell grouped refinement over a fix batch."""
        n = len(fixes)
        counters = self._counters
        if counters is not None:
            counters.entities.inc(n)
        if n == 0:
            return [], 0, 0
        lons = np.fromiter((f.lon for f in fixes), dtype=np.float64, count=n)
        lats = np.fromiter((f.lat for f in fixes), dtype=np.float64, count=n)
        if self.masks is not None:
            free = self.masks.in_mask_batch(lons, lats)
            if counters is not None:
                counters.mask_pruned.inc(int(free.sum()))
            survivors = np.flatnonzero(~free)
        else:
            survivors = np.arange(n)
        links: list[Link] = []
        refinements = 0
        if survivors.size == 0:
            return links, n, 0
        cell_ids = self.grid.cell_ids_batch(lons[survivors], lats[survivors])
        # Group survivors into per-cell runs via a stable sort on cell id.
        order = np.argsort(cell_ids, kind="stable")
        sorted_cells = cell_ids[order]
        run_starts = np.flatnonzero(np.r_[True, sorted_cells[1:] != sorted_cells[:-1]])
        run_ends = np.r_[run_starts[1:], sorted_cells.size]
        # links_for semantics: one candidates() lookup per surviving fix.
        self.blocks.stats.lookups += int(survivors.size)
        cell_map = self.blocks._cell_to_regions
        near = self.near_threshold_m
        # Regroup the (cell, region) candidate pairs by region so each
        # polygon refines all its candidates in ONE kernel call — the
        # per-cell member runs are tiny, the per-region unions are not.
        region_members: dict[int, list[np.ndarray]] = {}
        for a, b in zip(run_starts.tolist(), run_ends.tolist()):
            region_idxs = cell_map.get(int(sorted_cells[a]), [])
            count = b - a
            self.blocks.stats.candidates += len(region_idxs) * count
            if not region_idxs:
                continue
            pairs = len(region_idxs) * count
            refinements += pairs
            if counters is not None:
                counters.candidates.inc(pairs)
            members = survivors[order[a:b]]
            for ridx in region_idxs:
                region_members.setdefault(ridx, []).append(members)
        for ridx, chunks in region_members.items():
            members = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            g_lons = lons[members]
            g_lats = lats[members]
            region = self.blocks.regions[ridx]
            within = region.polygon.contains_exact_batch(g_lons, g_lats)
            for i in np.flatnonzero(within).tolist():
                f = fixes[int(members[i])]
                links.append(Link(f.entity_id, region.region_id, WITHIN, f.t, 0.0))
            if near > 0.0:
                outside = np.flatnonzero(~within)
                if outside.size:
                    d = region.polygon.distance_to_point_m_batch(g_lons[outside], g_lats[outside])
                    for i in np.flatnonzero(d <= near).tolist():
                        f = fixes[int(members[int(outside[i])])]
                        links.append(Link(f.entity_id, region.region_id, NEAR_TO, f.t, float(d[i])))
        if counters is not None and links:
            counters.links.inc(len(links))
        return links, n, refinements


class PortLinkDiscoverer:
    """nearTo discovery between moving points and ports."""

    def __init__(
        self,
        ports: Sequence[Port],
        bbox: BBox,
        threshold_m: float,
        cell_deg: float = 0.25,
        registry=None,
        metrics_name: str = "port",
    ):
        if not ports:
            raise ValueError("no ports to link against")
        if threshold_m <= 0:
            raise ValueError("nearTo needs a positive threshold")
        self.threshold_m = threshold_m
        self.grid = default_grid(bbox, cell_deg)
        self.blocks = PortBlocks(list(ports), self.grid, threshold_m)
        self._counters = _DiscoveryCounters(registry, metrics_name) if registry is not None else None
        self._port_lons = np.fromiter((p.location.lon for p in self.blocks.ports), dtype=np.float64)
        self._port_lats = np.fromiter((p.location.lat for p in self.blocks.ports), dtype=np.float64)

    def links_for(self, fix: PositionFix) -> tuple[list[Link], int]:
        counters = self._counters
        # Entities are counted on entry (before pruning/refinement), the
        # same contract as RegionLinkDiscoverer, so the two discoverers'
        # `entities` counters are comparable.
        if counters is not None:
            counters.entities.inc()
        links: list[Link] = []
        refinements = 0
        for port in self.blocks.candidates(fix.lon, fix.lat):
            refinements += 1
            near, d = point_near_port(fix, port, self.threshold_m)
            if near:
                links.append(Link(fix.entity_id, port.port_id, NEAR_TO, fix.t, d))
        if counters is not None:
            counters.candidates.inc(refinements)
            if links:
                counters.links.inc(len(links))
        return links, refinements

    def discover(self, fixes: Iterable[PositionFix]) -> DiscoveryResult:
        """Run over a bounded point batch, measuring throughput.

        Groups the batch by cell and evaluates each cell's point x
        candidate-port distances as one broadcast haversine kernel. A
        loop over :meth:`links_for` finds the same pairs (haversine
        agrees to the last ulp of ``asin``, so threshold verdicts match
        on any workload whose distances are not within one ulp of the
        threshold).
        """
        start = time.perf_counter()
        links, n, refinements = self._discover_batch(list(fixes))
        elapsed = time.perf_counter() - start
        return DiscoveryResult(links, n, elapsed, refinements)

    def _discover_batch(self, fixes: list[PositionFix]) -> tuple[list[Link], int, int]:
        """Per-cell grouped point x port broadcast refinement over a fix batch."""
        n = len(fixes)
        counters = self._counters
        if counters is not None:
            counters.entities.inc(n)
        if n == 0:
            return [], 0, 0
        lons = np.fromiter((f.lon for f in fixes), dtype=np.float64, count=n)
        lats = np.fromiter((f.lat for f in fixes), dtype=np.float64, count=n)
        cell_ids = self.grid.cell_ids_batch(lons, lats)
        order = np.argsort(cell_ids, kind="stable")
        sorted_cells = cell_ids[order]
        run_starts = np.flatnonzero(np.r_[True, sorted_cells[1:] != sorted_cells[:-1]])
        run_ends = np.r_[run_starts[1:], sorted_cells.size]
        self.blocks.stats.lookups += n
        cell_map = self.blocks._cell_to_ports
        links: list[Link] = []
        refinements = 0
        for a, b in zip(run_starts.tolist(), run_ends.tolist()):
            port_idxs = cell_map.get(int(sorted_cells[a]), [])
            count = b - a
            self.blocks.stats.candidates += len(port_idxs) * count
            if not port_idxs:
                continue
            pairs = len(port_idxs) * count
            refinements += pairs
            if counters is not None:
                counters.candidates.inc(pairs)
            members = order[a:b]
            idx = np.asarray(port_idxs, dtype=np.int64)
            d = kernels.haversine_m_batch(
                lons[members][:, None],
                lats[members][:, None],
                self._port_lons[idx][None, :],
                self._port_lats[idx][None, :],
            )
            for i, j in zip(*np.nonzero(d <= self.threshold_m)):
                f = fixes[int(members[int(i)])]
                port = self.blocks.ports[int(idx[int(j)])]
                links.append(Link(f.entity_id, port.port_id, NEAR_TO, f.t, float(d[i, j])))
        if counters is not None and links:
            counters.links.inc(len(links))
        return links, n, refinements
