"""E11 / Figure 10 — time-mask filtering of movement and event data.

The paper's workflow: a time-series display shows hourly vessel counts
and near-location event counts; a query selects the intervals containing
at least one event (the time mask); trajectory densities are then
summarized separately for the in-mask and out-of-mask times, revealing
where traffic concentrates when the events occur.
"""

from __future__ import annotations

import pytest

from repro.datasources import AISConfig, AISSimulator
from repro.geo import group_fixes_by_entity
from repro.linkdiscovery import MovingProximityDiscoverer
from repro.geo import BBox
from repro.va import DensityGrid, TimeHistogram, TimeMask, compare_densities

from _tables import format_table

HOURS = 12
BIN_S = 3600.0

#: A compact Aegean-like operating area: dense enough for encounters.
AREA = BBox(23.0, 37.0, 26.0, 39.5)


@pytest.fixture(scope="module")
def scenario():
    sim = AISSimulator(
        n_vessels=12, seed=61, bbox=AREA,
        config=AISConfig(report_period_s=30.0, gap_probability_per_hour=0.0, outlier_probability=0.0),
    )
    fixes = list(sim.fixes(0.0, HOURS * 3600.0))
    # Near-location events between vessels (the Figure-10 event series).
    proximity = MovingProximityDiscoverer(AREA, space_threshold_m=3000.0, time_threshold_s=120.0, cell_deg=0.1)
    events = [(link.t, link) for fix in fixes for link in proximity.process(fix)]
    return fixes, events


@pytest.fixture(scope="module")
def masked(scenario):
    fixes, events = scenario
    histogram = TimeHistogram(0.0, HOURS * 3600.0, BIN_S)
    for fix in fixes:
        histogram.add(fix.t, "vessels")
    for t, _ in events:
        histogram.add(t, "near_event")
    mask = TimeMask.from_histogram(histogram, lambda b: b.counts.get("near_event", 0) >= 1)
    return histogram, mask


def test_fig10_time_series_and_mask(scenario, masked, console, benchmark):
    fixes, events = scenario
    histogram, mask = masked
    rows = []
    for i, b in enumerate(histogram.bins()):
        selected = "*" if mask.contains(b.start) else ""
        rows.append([f"hour {i:02d}{selected}", b.counts.get("vessels", 0), b.counts.get("near_event", 0)])
    with console():
        print(format_table(
            "Figure 10 (top): hourly vessel reports and near-location events "
            "(* = interval selected by the time mask)",
            ["hour", "vessel reports", "near events"],
            rows,
        ))
        print(f"mask: {len(mask)} intervals, {mask.total_duration() / 3600.0:.0f} h of {HOURS} h; "
              f"{len(events)} events total")
    assert 0 < len(mask)
    assert mask.total_duration() < HOURS * 3600.0  # a *partial* selection
    benchmark(lambda: TimeMask.from_histogram(histogram, lambda b: b.counts.get("near_event", 0) >= 1))


def test_fig10_density_inside_vs_outside(scenario, masked, console, benchmark):
    fixes, _ = scenario
    _, mask = masked
    inside = DensityGrid(AREA, cols=48, rows=24)
    outside = DensityGrid(AREA, cols=48, rows=24)
    for trajectory in group_fixes_by_entity(fixes).values():
        ins, outs = mask.split_trajectory(trajectory)
        inside.add_fixes(ins)
        outside.add_fixes(outs)
    comparison = compare_densities(inside, outside)
    with console():
        print(format_table(
            "Figure 10 (bottom): trajectory density inside vs outside the mask",
            ["surface", "samples", "occupied cells", "peak count"],
            [
                ["in-mask", inside.samples, inside.occupied_cells(), inside.peak_cell()[2]],
                ["out-of-mask", outside.samples, outside.occupied_cells(), outside.peak_cell()[2]],
            ],
        ))
        print(f"density difference: L1={comparison.l1_difference:.3f}, "
              f"corr={comparison.correlation:.3f}, exclusive cells: "
              f"{comparison.only_in_a} in-mask / {comparison.only_in_b} out-of-mask")
    assert inside.samples > 0 and outside.samples > 0
    assert comparison.l1_difference > 0.0   # the two situations genuinely differ
    benchmark(lambda: compare_densities(inside, outside))
