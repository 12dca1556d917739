"""E3 / Section 4.2.3 — RDF generation throughput.

Paper claims: ~10,500 input records/s transformed to RDF; for some
sources the number is smaller "due to complicated geometries that need
to be processed".
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

import pytest

from repro.datasources import AISConfig, AISSimulator
from repro.datasources.regions import Region
from repro.geo import Polygon
from repro.rdf import raw_fix_rdfizer, region_rdfizer, synopses_rdfizer
from repro.synopses import SynopsesGenerator

from _tables import format_table


def complicated_regions(n: int, n_vertices: int = 64, seed: int = 19) -> list[Region]:
    """Regions with high-vertex-count polygons (the paper's slow sources)."""
    rng = random.Random(seed)
    regions = []
    for i in range(n):
        cx, cy = rng.uniform(0, 20), rng.uniform(32, 44)
        pts = []
        for k in range(n_vertices):
            angle = 2.0 * math.pi * k / n_vertices
            r = rng.uniform(0.05, 0.12)
            pts.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
        regions.append(Region(f"region-{i:05d}", f"complex-{i:05d}", "natura2000", Polygon(pts)))
    return regions


@pytest.fixture(scope="module")
def workload():
    sim = AISSimulator(
        n_vessels=20, seed=17,
        config=AISConfig(report_period_s=10.0, gap_probability_per_hour=0.0, outlier_probability=0.0),
    )
    fixes = list(sim.fixes(0.0, 3600.0))
    # The synopses topic as a real-time layer publishes it, in polls of 64
    # fixes that each end the trajectories they touched: the shape an
    # ingest drains (mostly `end` points, each entity's id many times).
    gen = SynopsesGenerator()
    points = [cp for i in range(0, len(fixes), 64) for cp in [*gen.process_stream(fixes[i : i + 64]), *gen.flush()]]
    assert len(points) >= 1_000
    regions = complicated_regions(2000)
    return fixes, points, regions


class Drained(NamedTuple):
    """One rdfizer drained: its input and output counts and its seconds."""

    records: int
    triples: int
    seconds: float

    @property
    def records_per_second(self) -> float:
        return self.records / self.seconds

    @property
    def triples_per_record(self) -> float:
        return self.triples / self.records


def _drain(rdfizer, records) -> Drained:
    """``rdfizer(records).triples()`` timed alone: the batch layer's
    ``rdfize`` region, one batch."""
    generator = rdfizer(records)
    start = time.perf_counter()
    triples = generator.triples()
    return Drained(len(records), len(triples), time.perf_counter() - start)


def test_rdf_generation_throughput(workload, console, benchmark):
    fixes, points, regions = workload
    raw_stats = _drain(raw_fix_rdfizer, fixes)
    syn_stats = _drain(synopses_rdfizer, points)
    region_stats = _drain(region_rdfizer, regions)
    rows = [
        ["raw positions", raw_stats.records, f"{raw_stats.records_per_second:,.0f}", f"{raw_stats.triples_per_record:.1f}"],
        ["synopses", syn_stats.records, f"{syn_stats.records_per_second:,.0f}", f"{syn_stats.triples_per_record:.1f}"],
        ["regions (geometry-heavy)", region_stats.records, f"{region_stats.records_per_second:,.0f}", f"{region_stats.triples_per_record:.1f}"],
    ]
    with console():
        print(format_table(
            "RDF generation (paper: ~10,500 records/s; geometry-heavy sources slower)",
            ["source", "records", "records/s", "triples/record"],
            rows,
            width=24,
        ))
    # Shape: surveillance-style records transform comfortably above 10k/s,
    # geometry-heavy sources run slower per record.
    assert raw_stats.records_per_second > 10_000
    assert region_stats.records_per_second < raw_stats.records_per_second

    benchmark(lambda: _drain(raw_fix_rdfizer, fixes[:5000]).records)


def test_region_geometry_penalty(workload, console, benchmark):
    """Per-record cost of WKT-polygon serialization vs point records."""
    fixes, _, regions = workload
    raw = _drain(raw_fix_rdfizer, fixes[:2000])
    reg = _drain(region_rdfizer, regions[:2000])
    per_raw = raw.seconds / raw.records
    per_reg = reg.seconds / reg.records
    with console():
        print(f"\nper-record cost: point={per_raw * 1e6:.1f} us, polygon={per_reg * 1e6:.1f} us "
              f"({per_reg / per_raw:.1f}x slower)")
    assert per_reg > per_raw
    benchmark(lambda: _drain(region_rdfizer, regions[:500]).records)
