"""E14 / Figure 13 — the real-time situation-monitoring dashboard.

The dashboard is the endpoint of the Kafka-based real-time layer: it
renders the enriched stream (positions, synopses, detected events) as a
situational picture. We run the integrated pipeline over a fleet and
measure end-to-end stream throughput plus frame-render latency.
"""

from __future__ import annotations

import pytest

from repro.cep import symbol_sequence, turn_event_stream
from repro.core import DatacronSystem, SystemConfig
from repro.datasources import AISConfig, AISSimulator, fishing_vessel_stream
from repro.synopses import SynopsesConfig, SynopsesGenerator

from _tables import format_table


@pytest.fixture(scope="module")
def system_run():
    config = SystemConfig(n_regions=100, n_ports=40, seed=51, synopses=SynopsesConfig(min_reemit_s=30.0))
    train = fishing_vessel_stream(seed=9, duration_s=12 * 3600.0, report_period_s=20.0)
    gen = SynopsesGenerator(config.synopses)
    points = list(gen.process_stream(train)) + gen.flush()
    symbols = symbol_sequence(turn_event_stream(points))
    system = DatacronSystem(config, t_origin=0.0, t_extent_s=8 * 3600.0, cep_training_symbols=symbols)
    # A fishing-heavy fleet: the trawling reversals are what the CEP watches.
    from repro.datasources.registry import generate_vessel_registry

    pool = generate_vessel_registry(120, seed=53)
    vessels = [v for v in pool if v.is_fishing][:12] + [v for v in pool if not v.is_fishing][:8]
    sim = AISSimulator(seed=52, config=AISConfig(report_period_s=20.0), vessels=vessels)
    import time

    start = time.perf_counter()
    run = system.run(sim.fixes(0.0, 6 * 3600.0))
    elapsed = time.perf_counter() - start
    return system, run, elapsed


def test_fig13_end_to_end_pipeline(system_run, console, benchmark, emit_metrics):
    system, run, elapsed = system_run
    rows = [
        ["raw fixes", run.realtime.raw_fixes],
        ["clean fixes", run.realtime.clean_fixes],
        ["critical points", run.realtime.critical_points],
        ["links discovered", run.realtime.links],
        ["CEP detections", run.realtime.cep_detections],
        ["CEP forecasts", run.realtime.cep_forecasts],
        ["KG triples", run.batch.triples],
    ]
    with console():
        print(format_table("Figure 13 scenario: integrated real-time layer counters", ["stage", "count"], rows, width=22))
        print(f"end-to-end: {run.realtime.raw_fixes / elapsed:,.0f} fixes/s wall-clock "
              f"({elapsed:.2f} s for a 6 h simulated window)")
    snapshot = emit_metrics(system.metrics, benchmark, title="Fig-13 pipeline metrics (repro.obs)")
    assert snapshot["counters"]["op.clean.records_in"] == run.realtime.raw_fixes
    assert snapshot["counters"]["op.clean.records_out"] == run.realtime.clean_fixes
    assert snapshot["histograms"]["e2e.record_latency_s"]["count"] == run.realtime.critical_points
    assert snapshot["histograms"]["e2e.record_latency_s"]["p95"] > 0.0
    assert run.realtime.raw_fixes / elapsed > run.realtime.raw_fixes / (6 * 3600.0)  # faster than real time
    assert run.realtime.cep_forecasts > 0
    benchmark(lambda: system.dashboard_frame(t=7200.0))


def test_fig13_record_lineage(system_run, console):
    """Lineage of one run() through the Figure-2 stages: a `run` root, one child per stage."""
    system, run, _ = system_run
    tracer = system.realtime.tracer
    traces = tracer.traces()
    assert traces, "every run() is traced"
    with console():
        print("\nFigure 13: run lineage (first trace)")
        print(tracer.lineage(traces[0]))
    stage_names = {sp.name for sp in tracer.trace(traces[0])}
    assert {"run", "clean", "synopses", "link_discovery"} <= stage_names


def test_fig13_dashboard_frame_content(system_run, console, benchmark):
    system, run, _ = system_run
    frame = system.dashboard_frame(t=7200.0)
    with console():
        print("\nFigure 13: dashboard frame")
        print(frame)
    assert "positions=" in frame
    assert "recent events:" in frame
    # The observability panel renders live registry contents.
    assert "operators (records/s" in frame
    assert "consumer lag:" in frame
    assert "trajectories.synopses.batch" in frame
    assert system.realtime.dashboard.entity_count() == 20
    benchmark(lambda: system.realtime.dashboard.render_map())
