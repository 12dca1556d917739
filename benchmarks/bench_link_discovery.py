"""E4 / Section 4.2.4 — link discovery with and without cell masks.

Paper numbers: against 8,599 regions, 23.09 entities/s without masks vs
123.51 entities/s with masks (~5.3x); nearTo against 3,865 ports at
328.53 entities/s. We run a scaled version of the same experiment (the
full region count with a dense critical-point stream) and check the
*shape*: masks deliver a multiple-x throughput gain with identical links,
and the port join runs faster than the region join.
"""

from __future__ import annotations

import time

import pytest

from repro.datasources import DEFAULT_BBOX, generate_ports, generate_regions
from repro.linkdiscovery import (
    DiscoveryResult,
    NEAR_TO,
    PortLinkDiscoverer,
    RegionLinkDiscoverer,
    WITHIN,
)

from _tables import format_table

N_REGIONS = 8599   # the paper's region count
N_PORTS = 3865     # the paper's port count


N_POINTS = 4000


@pytest.fixture(scope="module")
def workload():
    import random

    from repro.geo import PositionFix

    # Vertex-heavy boundaries, like the real Natura2000 shapefiles.
    regions = generate_regions(N_REGIONS, seed=42, vertex_range=(48, 192))
    ports = generate_ports(N_PORTS, seed=17)
    # Critical points with the spatial distribution of real AIS traffic:
    # concentrated along the coastal bands where the regions cluster (the
    # paper's Figure 4), with a uniform open-sea component.
    rng = random.Random(99)
    points = []
    for i in range(N_POINTS):
        if rng.random() < 0.7:
            region = rng.choice(regions)
            cx, cy = region.polygon.centroid()
            lon = cx + rng.gauss(0.0, 0.25)
            lat = cy + rng.gauss(0.0, 0.2)
        else:
            lon = rng.uniform(DEFAULT_BBOX.min_lon, DEFAULT_BBOX.max_lon)
            lat = rng.uniform(DEFAULT_BBOX.min_lat, DEFAULT_BBOX.max_lat)
        lon = min(max(lon, DEFAULT_BBOX.min_lon), DEFAULT_BBOX.max_lon)
        lat = min(max(lat, DEFAULT_BBOX.min_lat), DEFAULT_BBOX.max_lat)
        points.append(PositionFix(entity_id=f"v{i % 200}", t=float(i), lon=lon, lat=lat))
    return regions, ports, points


def per_fix_discover(discoverer: RegionLinkDiscoverer, points) -> tuple[DiscoveryResult, float]:
    """Time the ``links_for`` loop itself, one point at a time: the result
    and its entities/s."""
    links, refinements = [], 0
    start = time.perf_counter()
    for point in points:
        found, r = discoverer.links_for(point)
        links += found
        refinements += r
    elapsed = time.perf_counter() - start
    pruned = discoverer.masks.stats.pruned if discoverer.masks is not None else 0
    return DiscoveryResult(links, len(points), refinements, mask_pruned=pruned), len(points) / elapsed


@pytest.fixture(scope="module")
def region_results(workload):
    regions, _, points = workload
    with_masks = RegionLinkDiscoverer(regions, DEFAULT_BBOX, cell_deg=0.5, use_masks=True, mask_resolution=32)
    without_masks = RegionLinkDiscoverer(regions, DEFAULT_BBOX, cell_deg=0.5, use_masks=False)
    # E4 times the per-point links_for loop, the path the paper
    # describes. EntityStages runs links_many, the same masks and
    # refinement screened as one batch.
    return per_fix_discover(with_masks, points), per_fix_discover(without_masks, points)


def test_masks_speedup(region_results, console, benchmark):
    (masked, masked_rate), (unmasked, unmasked_rate) = region_results
    speedup = masked_rate / unmasked_rate
    rows = [
        ["without masks", f"{unmasked_rate:,.1f}", unmasked.refinements, unmasked.count(WITHIN)],
        ["with masks", f"{masked_rate:,.1f}", masked.refinements, masked.count(WITHIN)],
    ]
    with console():
        print(format_table(
            f"Region link discovery, {N_REGIONS} regions "
            "(paper: 23.09 -> 123.51 entities/s with masks, ~5.3x)",
            ["mode", "entities/s", "refinements", "within links"],
            rows,
            width=20,
        ))
        print(f"mask speedup: {speedup:.2f}x  (mask pruned {masked.mask_pruned} of {masked.entities_processed})")
    # Shape: identical results, material speedup.
    assert masked.count(WITHIN) == unmasked.count(WITHIN)
    assert speedup > 1.5  # paper: 5.3x on their geometry stack; shape = multiple-x
    benchmark(lambda: masked.count(WITHIN))


def test_masks_preserve_links(region_results, console, benchmark):
    (masked, _), (unmasked, _) = region_results
    key = lambda l: (l.source_id, l.target_id, l.relation, l.t)
    assert sorted(map(key, masked.links)) == sorted(map(key, unmasked.links))
    with console():
        print(f"\nlink equality check passed: {len(masked.links)} links in both modes")
    benchmark(lambda: len(masked.links))


def test_fig4_mask_rendering(region_results, workload, console, benchmark):
    """Figure 4: the equi-grid with masks, rendered as text.

    The paper's figure shades each cell by how much of it is covered by
    region geometry (the complement is the mask). We render coverage as
    density glyphs; the coastal-band structure should be visible.
    """
    regions, _, _ = workload
    ld = RegionLinkDiscoverer(regions, DEFAULT_BBOX, cell_deg=1.0, use_masks=True, mask_resolution=8)
    masks = ld.masks
    grid = ld.grid
    glyphs = " .:*#"
    lines = []
    for row in reversed(range(grid.rows)):
        chars = []
        for col in range(grid.cols):
            fraction = masks.coverage_fraction(row * grid.cols + col)
            chars.append(glyphs[min(len(glyphs) - 1, int(fraction * len(glyphs)))])
        lines.append("".join(chars))
    covered_cells = sum(1 for r in range(grid.rows) for c in range(grid.cols)
                        if masks.coverage_fraction(r * grid.cols + c) > 0)
    with console():
        print("\n=== Figure 4: equi-grid coverage (complement = mask; darker = more covered) ===")
        for line in lines:
            print(line)
        print(f"{covered_cells} of {len(grid)} cells carry any coverage; "
              f"the rest prune instantly")
    assert 0 < covered_cells < len(grid)   # clustered, not uniform
    benchmark(lambda: masks.coverage_fraction(0))


def test_port_near_to(workload, console, benchmark, emit_metrics):
    """The faster port join (paper: 328.53 entities/s, 2.5M nearTo relations)."""
    from time import perf_counter

    from repro.obs import MetricsRegistry, OperatorProbe

    _, ports, points = workload
    ld = PortLinkDiscoverer(ports, DEFAULT_BBOX, threshold_m=10_000.0, cell_deg=0.5)
    start = perf_counter()
    result = ld.discover(points)
    entities_s = result.entities_processed / (perf_counter() - start)
    with console():
        print(format_table(
            f"Port nearTo discovery, {N_PORTS} ports (paper: 328.53 entities/s)",
            ["entities/s", "nearTo links", "refinements"],
            [[f"{entities_s:,.1f}", result.count(NEAR_TO), result.refinements]],
            width=20,
        ))
    # Per-entity instrumentation through repro.obs: throughput counters plus
    # the latency quantiles the table's entities/s average hides.
    registry = MetricsRegistry()
    probe = OperatorProbe(registry, "port_links")
    for p in points[:1000]:
        t0 = perf_counter()
        links, _ = ld.links_for(p)
        probe.observe(len(links), perf_counter() - t0)
    snapshot = emit_metrics(registry, benchmark, title="port nearTo metrics (repro.obs)")
    assert snapshot["counters"]["op.port_links.records_in"] == 1000
    assert snapshot["histograms"]["op.port_links.latency_s"]["p99"] >= snapshot["histograms"]["op.port_links.latency_s"]["p50"]
    assert result.count(NEAR_TO) > 0
    benchmark(lambda: ld.discover(points[:500]).entities_processed)
