"""E5 / Section 4.2.5 — star-join queries with spatio-temporal constraints.

Paper claim: the spatio-temporal dictionary encoding improves query
processing time for star-join queries with spatio-temporal constraints
by a factor of ~5, over 269M triples from surveillance, weather and
contextual sources. We load a scaled triple corpus and compare the
pushdown plan against the post-filter baseline on all three layouts.
"""

from __future__ import annotations

import pytest

from repro.datasources import AISConfig, AISSimulator, DEFAULT_BBOX
from repro.geo import BBox
from repro.kgstore import KGStore, STConstraint, star
from repro.obs import MetricsRegistry
from repro.rdf import A, VOC, var
from repro.rdf.rdfizers import synopses_rdfizer, raw_fix_rdfizer
from repro.synopses import SynopsesGenerator

from _tables import format_table

#: A small space-time window: the selective-query regime where pushdown shines.
WINDOW = STConstraint(BBox(8.0, 36.0, 12.0, 39.0), 0.0, 2 * 3600.0)


@pytest.fixture(scope="module")
def store():
    sim = AISSimulator(
        n_vessels=150, seed=37,
        config=AISConfig(report_period_s=30.0, gap_probability_per_hour=0.0, outlier_probability=0.0),
    )
    fixes = list(sim.fixes(0.0, 6 * 3600.0))
    gen = SynopsesGenerator()
    points = list(gen.process_stream(fixes)) + gen.flush()
    triples = list(synopses_rdfizer(points).triples())
    triples += list(raw_fix_rdfizer(fixes).triples())
    kg = KGStore(DEFAULT_BBOX, t_origin=0.0, t_extent_s=6 * 3600.0,
                 layout="property_table", grid_cols=72, grid_rows=32, t_slots=48,
                 registry=MetricsRegistry())
    report = kg.load(triples)
    return kg, report, triples


def node_query(st=WINDOW):
    return star(
        "node",
        (A, VOC.RawPosition),
        (VOC.timestamp, var("t")),
        (VOC.asWKT, var("wkt")),
        st=st,
    )


def test_pushdown_speedup(store, console, benchmark, emit_metrics):
    kg, report, _ = store
    comparison = kg.compare_plans(node_query(), repeat=3)
    baseline, metrics_base = kg.execute(node_query(), pushdown=False)
    pushed, metrics_push = kg.execute(node_query(), pushdown=True)
    rows = [
        ["post-filter (baseline)", f"{comparison['baseline_s'] * 1e3:.1f} ms", metrics_base.refined, len(baseline)],
        ["ST-encoding pushdown", f"{comparison['pushdown_s'] * 1e3:.1f} ms", metrics_push.refined, len(pushed)],
    ]
    with console():
        print(format_table(
            f"Star join with ST constraint over {report.triples:,} triples "
            "(paper: ~5x faster with the spatio-temporal encoding)",
            ["plan", "median latency", "subjects refined", "results"],
            rows,
            width=22,
        ))
        print(f"speedup: {comparison['speedup']:.2f}x")
    assert baseline == pushed
    assert comparison["speedup"] > 2.0
    benchmark(lambda: kg.execute(node_query(), pushdown=True)[1].results)
    emit_metrics(kg.registry, benchmark, title="kgstore query metrics (repro.obs)")


def test_baseline_plan_timing(store, benchmark):
    kg, _, _ = store
    benchmark(lambda: kg.execute(node_query(), pushdown=False)[1].results)


@pytest.mark.parametrize("layout", ["triples_table", "vertical_partitioning"])
def test_layouts_speedup_shape(store, layout, console, benchmark):
    """The pushdown advantage holds on the other storage layouts too."""
    _, _, triples = store
    kg = KGStore(DEFAULT_BBOX, t_origin=0.0, t_extent_s=6 * 3600.0,
                 layout=layout, grid_cols=72, grid_rows=32, t_slots=48)
    kg.load(triples)
    comparison = kg.compare_plans(node_query(), repeat=3)
    with console():
        print(f"\nlayout={layout}: baseline={comparison['baseline_s']*1e3:.1f} ms, "
              f"pushdown={comparison['pushdown_s']*1e3:.1f} ms, speedup={comparison['speedup']:.2f}x")
    assert comparison["speedup"] > 1.2
    benchmark(lambda: kg.execute(node_query(), pushdown=True)[1].results)


def test_selectivity_sweep(store, console, benchmark):
    """Pushdown gains grow as the ST window gets more selective."""
    kg, _, _ = store
    windows = [
        ("whole area/day", STConstraint(DEFAULT_BBOX, 0.0, 6 * 3600.0)),
        ("regional/2h", WINDOW),
        ("local/1h", STConstraint(BBox(9.0, 37.0, 10.0, 38.0), 0.0, 3600.0)),
    ]
    rows = []
    speedups = []
    for label, window in windows:
        comparison = kg.compare_plans(node_query(window), repeat=3)
        speedups.append(comparison["speedup"])
        rows.append([label, f"{comparison['baseline_s']*1e3:.1f} ms",
                     f"{comparison['pushdown_s']*1e3:.1f} ms", f"{comparison['speedup']:.2f}x"])
    with console():
        print(format_table("Pushdown speedup vs query selectivity",
                           ["window", "baseline", "pushdown", "speedup"], rows, width=20))
    assert speedups[-1] > speedups[0]
    benchmark(lambda: kg.execute(node_query(windows[-1][1]), pushdown=True)[1].results)
