"""Ablation benches for the reproduction's load-bearing design choices.

Four ablations, one per headline mechanism:

* **mask resolution** — the cell-mask sub-grid granularity trades build
  time for pruning power (Section 4.2.4's optimization knob);
* **synopses thresholds** — the turn threshold trades compression
  against reconstruction fidelity (Section 4.2.2's heuristics);
* **PMC order** — higher-order input models grow the state space for
  (potentially) sharper waiting-time distributions (Section 6);
* **deviation quantization** — the hybrid TP model's bin count trades
  resolution against data per state (Section 5).
"""

from __future__ import annotations

import random
import time

from repro.cep import (
    TURN_ALPHABET,
    build_pmc_markov,
    compile_pattern,
    conditional_distribution,
    north_to_south_reversal,
)
from repro.datasources import AISConfig, AISSimulator, DEFAULT_BBOX, generate_regions
from repro.datasources.aviation import FlightDatasetConfig, generate_flight_dataset
from repro.geo import PositionFix
from repro.linkdiscovery import RegionLinkDiscoverer
from repro.prediction import DeviationBins, HybridClusteringHMM, features_dataset
from repro.synopses import SynopsesConfig, run_synopses

from _tables import format_table


def test_ablation_mask_resolution(console, benchmark):
    """Pruning rate and build cost vs the mask sub-grid resolution."""
    regions = generate_regions(2000, seed=42, vertex_range=(48, 192))
    rng = random.Random(7)
    points = []
    for i in range(1500):
        region = rng.choice(regions)
        cx, cy = region.polygon.centroid()
        points.append(PositionFix(f"v{i}", float(i),
                                  min(max(cx + rng.gauss(0, 0.25), DEFAULT_BBOX.min_lon), DEFAULT_BBOX.max_lon),
                                  min(max(cy + rng.gauss(0, 0.2), DEFAULT_BBOX.min_lat), DEFAULT_BBOX.max_lat)))
    rows = []
    prune_rates = []
    for resolution in (4, 8, 16, 32):
        t0 = time.perf_counter()
        ld = RegionLinkDiscoverer(regions, DEFAULT_BBOX, cell_deg=0.5, use_masks=True, mask_resolution=resolution)
        build_s = time.perf_counter() - t0
        result = ld.discover(points)
        rate = result.mask_pruned / result.entities_processed
        prune_rates.append(rate)
        rows.append([resolution, f"{build_s:.2f} s", f"{rate * 100:.1f} %", result.refinements])
    with console():
        print(format_table(
            "Ablation: cell-mask resolution (finer masks prune more, cost more to build)",
            ["resolution", "build time", "prune rate", "refinements"],
            rows,
        ))
    assert prune_rates == sorted(prune_rates)   # monotone: finer is never worse
    benchmark(lambda: RegionLinkDiscoverer(regions[:300], DEFAULT_BBOX, cell_deg=0.5, mask_resolution=8))


def test_ablation_synopses_turn_threshold(console, benchmark):
    """Compression vs reconstruction error across turn thresholds."""
    sim = AISSimulator(
        n_vessels=8, seed=13,
        config=AISConfig(report_period_s=10.0, gap_probability_per_hour=0.0, outlier_probability=0.0),
    )
    fixes = list(sim.fixes(0.0, 2 * 3600.0))
    rows = []
    compressions, errors = [], []
    for threshold in (5.0, 15.0, 45.0, 90.0):
        result = run_synopses(fixes, config=SynopsesConfig(turn_threshold_deg=threshold))
        compressions.append(result.compression_ratio)
        errors.append(result.mean_rmse_m)
        rows.append([f"{threshold:.0f} deg", f"{result.compression_ratio * 100:.2f} %",
                     f"{result.mean_rmse_m:.0f} m", result.points_out])
    with console():
        print(format_table(
            "Ablation: synopses turn threshold (looser threshold => more compression, more error)",
            ["turn threshold", "compression", "reconstruction RMSE", "synopsis points"],
            rows,
        ))
    assert compressions == sorted(compressions)            # looser -> compresses more
    assert errors[-1] >= errors[0]                         # ...at a fidelity cost
    benchmark(lambda: run_synopses(fixes[:2000]).points_out)


def test_ablation_pmc_order_state_space(console, benchmark):
    """PMC state count and build time vs the assumed Markov order."""
    dfa = compile_pattern(north_to_south_reversal(), TURN_ALPHABET)
    rng = random.Random(3)
    symbols = [rng.choice(TURN_ALPHABET) for _ in range(4000)]
    rows = []
    state_counts = []
    for order in (1, 2, 3):
        table = conditional_distribution(symbols, TURN_ALPHABET, order)
        t0 = time.perf_counter()
        pmc = build_pmc_markov(dfa, table, order)
        build_s = time.perf_counter() - t0
        state_counts.append(pmc.n_states)
        rows.append([order, pmc.n_states, f"{build_s * 1e3:.1f} ms", pmc.is_stochastic()])
    with console():
        print(format_table(
            "Ablation: PMC state space vs Markov order (|Q| x |Sigma|^m growth)",
            ["order m", "PMC states", "build time", "stochastic"],
            rows,
        ))
    assert state_counts[0] < state_counts[1] < state_counts[2]
    benchmark(lambda: build_pmc_markov(dfa, conditional_distribution(symbols[:1000], TURN_ALPHABET, 1), 1).n_states)


def test_ablation_deviation_bins(console, benchmark):
    """Hybrid-TP accuracy vs deviation quantization granularity."""
    flights = generate_flight_dataset(FlightDatasetConfig(n_flights=60), seed=23)
    corpus = features_dataset(flights)
    split = int(len(corpus) * 0.8)
    rows = []
    rmses = {}
    for n_bins in (5, 17, 33):
        model = HybridClusteringHMM(bins=DeviationBins(limit_m=4000.0, n_bins=n_bins))
        model.fit(corpus[:split])
        evaluation = model.evaluate(corpus[split:])
        rmses[n_bins] = evaluation.pooled_rmse_m
        rows.append([n_bins, f"{8000.0 / n_bins:.0f} m", f"{evaluation.pooled_rmse_m:.0f} m",
                     model.report.total_parameters])
    with console():
        print(format_table(
            "Ablation: deviation quantization (too coarse loses signal; too fine starves states)",
            ["bins", "bin width", "held-out RMSE", "parameters"],
            rows,
        ))
    # 5 bins (1.6 km buckets) must be visibly worse than the default 17.
    assert rmses[5] > rmses[17] * 0.95
    benchmark(lambda: rmses[17])
