"""The link-discovery engine: blocking + optional masks + refinement.

Reproduces the E4 experiment (Section 4.2.4): discovering
``dul:within`` relations to a static set of regions and
``geosparql:nearTo`` relations to ports for a stream of critical
points, with and without
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
from .relations import Link, NEAR_TO, WITHIN, point_near_port, point_within_region


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

    def count(self, entities: int, candidates: int, links: int, mask_pruned: int = 0) -> None:
        """Add one batch's totals."""
        self.entities.inc(entities)
        self.mask_pruned.inc(mask_pruned)
        self.candidates.inc(candidates)
        self.links.inc(links)


def _discover(discoverer, fixes: Iterable[PositionFix]) -> tuple[list[Link], int, float, int]:
    """``links_many`` over a bounded batch, flattened and timed:
    (links, entities, wall seconds, refinements)."""
    start = time.perf_counter()
    fixes = list(fixes)
    found, refinements = discoverer.links_many(fixes, [f.lon for f in fixes], [f.lat for f in fixes])
    links = [link for links in found for link in links]
    return links, len(fixes), time.perf_counter() - start, refinements


class RegionLinkDiscoverer:
    """within discovery between moving points and stationary regions."""

    def __init__(
        self,
        regions: Sequence[Region],
        bbox: BBox,
        cell_deg: float = 0.25,
        use_masks: bool = True,
        mask_resolution: int = 8,
        registry=None,
    ):
        if not regions:
            raise ValueError("no regions to link against")
        self.grid: EquiGrid = default_grid(bbox, cell_deg)
        self.blocks = RegionBlocks(list(regions), self.grid)
        self.masks = CellMasks(self.blocks, resolution=mask_resolution) if use_masks else None
        self._counters = _DiscoveryCounters(registry, "region") if registry is not None else None

    def _refine(self, fix: PositionFix, candidates: list[int]) -> list[Link]:
        """The within predicate against each candidate region, in order."""
        links: list[Link] = []
        for idx in candidates:
            region = self.blocks.regions[idx]
            if point_within_region(fix, region):
                links.append(Link(fix.entity_id, region.region_id, WITHIN, fix.t, 0.0))
        return links

    def links_for(self, fix: PositionFix) -> tuple[list[Link], int]:
        """Links of one point; returns (links, refinement_count)."""
        counters = self._counters
        if counters is not None:
            counters.entities.inc()
        if self.masks is not None and self.masks.in_mask(fix.lon, fix.lat):
            if counters is not None:
                counters.mask_pruned.inc()
            return [], 0
        candidates = self.blocks.candidate_indices(fix.lon, fix.lat)
        links = self._refine(fix, candidates)
        if counters is not None:
            counters.candidates.inc(len(candidates))
            if links:
                counters.links.inc(len(links))
        return links, len(candidates)

    def links_many(self, fixes: Sequence[PositionFix], lons, lats) -> tuple[list[list[Link]], int]:
        """:meth:`links_for` of every fix, screened as one batch; ``lons`` /
        ``lats`` are the fixes' coordinates. Returns (links per fix,
        refinement_count).

        ``in_mask_batch`` and ``cell_ids_batch`` screen the batch (both
        bit-for-bit twins of their scalar methods); every fix left with
        candidates is refined by :meth:`_refine`, so the links, their order
        and distances, ``blocks.stats``, ``masks.stats`` and the counters
        equal a ``links_for`` loop's.
        """
        lons, lats = kernels.as_lonlat(lons, lats)
        n = len(fixes)
        rows = np.arange(n) if self.masks is None else np.flatnonzero(~self.masks.in_mask_batch(lons, lats))
        cell_map = self.blocks._cell_to_regions
        found: list[list[Link]] = [[] for _ in range(n)]
        refinements = n_links = 0
        for i, cell_id in zip(rows.tolist(), self.grid.cell_ids_batch(lons[rows], lats[rows]).tolist()):
            candidates = cell_map.get(cell_id)
            if candidates:
                refinements += len(candidates)
                found[i] = links = self._refine(fixes[i], candidates)
                n_links += len(links)
        self.blocks.stats.lookups += len(rows)
        self.blocks.stats.candidates += refinements
        if self._counters is not None:
            self._counters.count(n, refinements, n_links, mask_pruned=n - len(rows))
        return found, refinements

    def discover(self, fixes: Iterable[PositionFix]) -> DiscoveryResult:
        """:meth:`links_many` over a bounded point batch, flattened, measuring
        throughput.

        ``mask_pruned`` reports this run's prunes only: the mask stats
        are snapshotted at entry, so consecutive ``discover()`` calls on
        one discoverer no longer inflate each other's counts.
        """
        pruned_before = self.masks.stats.pruned if self.masks is not None else 0
        links, n, elapsed, refinements = _discover(self, fixes)
        pruned = self.masks.stats.pruned - pruned_before if self.masks is not None else 0
        return DiscoveryResult(links, n, elapsed, refinements, mask_pruned=pruned)


class PortLinkDiscoverer:
    """nearTo discovery between moving points and ports."""

    def __init__(
        self,
        ports: Sequence[Port],
        bbox: BBox,
        threshold_m: float,
        cell_deg: float = 0.25,
        registry=None,
    ):
        if not ports:
            raise ValueError("no ports to link against")
        if threshold_m <= 0:
            raise ValueError("nearTo needs a positive threshold")
        self.threshold_m = threshold_m
        self.grid = default_grid(bbox, cell_deg)
        self.blocks = PortBlocks(list(ports), self.grid, threshold_m)
        self._counters = _DiscoveryCounters(registry, "port") if registry is not None else None

    def _refine(self, fix: PositionFix, candidates: list[int]) -> list[Link]:
        """The per-fix predicate against each candidate port, in order."""
        links: list[Link] = []
        for idx in candidates:
            port = self.blocks.ports[idx]
            near, d = point_near_port(fix, port, self.threshold_m)
            if near:
                links.append(Link(fix.entity_id, port.port_id, NEAR_TO, fix.t, d))
        return links

    def links_for(self, fix: PositionFix) -> tuple[list[Link], int]:
        counters = self._counters
        # Entities are counted on entry (before pruning/refinement), the
        # same contract as RegionLinkDiscoverer, so the two discoverers'
        # `entities` counters are comparable.
        if counters is not None:
            counters.entities.inc()
        candidates = self.blocks.candidate_indices(fix.lon, fix.lat)
        links = self._refine(fix, candidates)
        if counters is not None:
            counters.candidates.inc(len(candidates))
            if links:
                counters.links.inc(len(links))
        return links, len(candidates)

    def links_many(self, fixes: Sequence[PositionFix], lons, lats) -> tuple[list[list[Link]], int]:
        """:meth:`links_for` of every fix, screened as one batch: one
        ``cell_ids_batch`` call finds each fix's candidates, and
        :meth:`_refine` refines them, so links, order, distances,
        ``blocks.stats`` and counters equal a ``links_for`` loop's."""
        cell_map = self.blocks._cell_to_ports
        found: list[list[Link]] = [[] for _ in range(len(fixes))]
        refinements = n_links = 0
        for i, cell_id in enumerate(self.grid.cell_ids_batch(lons, lats).tolist()):
            candidates = cell_map.get(cell_id)
            if candidates:
                refinements += len(candidates)
                found[i] = links = self._refine(fixes[i], candidates)
                n_links += len(links)
        self.blocks.stats.lookups += len(fixes)
        self.blocks.stats.candidates += refinements
        if self._counters is not None:
            self._counters.count(len(fixes), refinements, n_links)
        return found, refinements

    def discover(self, fixes: Iterable[PositionFix]) -> DiscoveryResult:
        """:meth:`links_many` over a bounded point batch, flattened,
        measuring throughput."""
        links, n, elapsed, refinements = _discover(self, fixes)
        return DiscoveryResult(links, n, elapsed, refinements)
