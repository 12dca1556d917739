"""E2 / Section 4.2.2 — Synopses Generator: compression, fidelity, throughput.

Paper claims: ~80 % data reduction at low/moderate report rates, up to
99 % at very frequent rates, "without harming the quality of the derived
trajectory synopses", and real-time throughput keeping pace with the
input stream.
"""

from __future__ import annotations

import pytest

from repro.datasources import AISConfig, AISSimulator, FlightDatasetConfig, generate_flight_dataset
from repro.synopses import AVIATION_CONFIG, SynopsesGenerator, run_synopses

from _tables import format_table

#: (label, report period seconds) — sparse to very frequent reporting.
RATES = [("sparse (60 s)", 60.0), ("moderate (10 s)", 10.0), ("frequent (2 s)", 2.0)]


@pytest.fixture(scope="module")
def maritime_runs():
    runs = {}
    for label, period in RATES:
        sim = AISSimulator(
            n_vessels=8,
            seed=13,
            config=AISConfig(report_period_s=period, gap_probability_per_hour=0.0, outlier_probability=0.0),
        )
        duration = 2 * 3600.0 if period >= 10.0 else 1800.0
        runs[label] = run_synopses(sim.fixes(0.0, duration))
    return runs


def test_compression_vs_rate(maritime_runs, console, benchmark):
    rows = []
    for label, _ in RATES:
        result = maritime_runs[label]
        rows.append(
            [
                label,
                result.points_in,
                result.points_out,
                f"{result.compression_ratio * 100.0:.1f} %",
                f"{result.mean_rmse_m:.0f} m",
            ]
        )
    with console():
        print(format_table(
            "Synopses compression vs report rate (paper: ~80 % moderate, up to 99 % frequent)",
            ["input rate", "points in", "synopsis", "compression", "reconstruction RMSE"],
            rows,
            width=20,
        ))
    sparse = maritime_runs[RATES[0][0]]
    frequent = maritime_runs[RATES[-1][0]]
    assert frequent.compression_ratio > sparse.compression_ratio
    assert frequent.compression_ratio > 0.95

    # Timed hot path: the generator alone over a pre-materialized stream.
    sim = AISSimulator(n_vessels=8, seed=13, config=AISConfig(report_period_s=10.0))
    fixes = list(sim.fixes(0.0, 1200.0))

    def run_generator():
        gen = SynopsesGenerator()
        for fix in fixes:
            gen.process(fix)
        return gen.points_out

    benchmark(run_generator)


def test_throughput_realtime(maritime_runs, console, benchmark, emit_metrics):
    """Throughput must exceed the input arrival rate by orders of magnitude."""
    from time import perf_counter

    from repro.obs import MetricsRegistry, OperatorProbe

    result = maritime_runs["moderate (10 s)"]
    with console():
        print(f"\nSynopses throughput: {result.throughput_records_s:,.0f} records/s "
              f"(noise dropped: {result.noise_dropped})")
    # Per-record instrumentation: records/s counters plus p50/p95/p99 of the
    # per-fix processing latency, from a deterministic obs registry.
    sim = AISSimulator(n_vessels=8, seed=13, config=AISConfig(report_period_s=10.0))
    fixes = list(sim.fixes(0.0, 1200.0))
    registry = MetricsRegistry()
    probe = OperatorProbe(registry, "synopses_generator")
    gen = SynopsesGenerator()
    for fix in fixes:
        t0 = perf_counter()
        points = gen.process(fix)
        probe.observe(len(points), perf_counter() - t0)
    snapshot = emit_metrics(registry, benchmark, title="synopses generator metrics (repro.obs)")
    assert snapshot["counters"]["op.synopses_generator.records_in"] == len(fixes)
    assert snapshot["histograms"]["op.synopses_generator.latency_s"]["p95"] > 0.0
    assert result.throughput_records_s > 10_000
    benchmark(lambda: result.throughput_records_s)


def test_aviation_synopses(console, benchmark):
    """Aviation preset: takeoff/landing/altitude events with strong compression."""
    flights = generate_flight_dataset(FlightDatasetConfig(n_flights=4), seed=31)
    fixes = [f for fl in flights for f in fl.trajectory]
    fixes.sort(key=lambda f: f.t)
    result = run_synopses(fixes, config=AVIATION_CONFIG)
    with console():
        print(format_table(
            "Aviation synopses",
            ["points in", "synopsis", "compression", "RMSE"],
            [[result.points_in, result.points_out,
              f"{result.compression_ratio * 100:.1f} %", f"{result.mean_rmse_m:.0f} m"]],
        ))
    assert result.compression_ratio > 0.5
    benchmark(lambda: run_synopses(fixes[:2000], config=AVIATION_CONFIG).points_out)
