"""E7 / Figure 5(b) — Hybrid Clustering/HMM trajectory prediction.

Paper claims: per-waypoint deviations from flight plans predicted with a
combined 3-D accuracy of 183-736 m (RMSE) across clusters; at least an
order of magnitude better cross-track accuracy than the "blind" HMM,
with two to three orders of magnitude fewer processing/storage
resources.
"""

from __future__ import annotations

import pytest

from repro.datasources import FlightDatasetConfig, generate_flight_dataset
from repro.geo import BBox
from repro.prediction import (
    BlindHMMPredictor,
    HybridClusteringHMM,
    features_dataset,
    rmse,
)

from _tables import format_table

SPAIN = BBox(-7.0, 36.0, 4.0, 44.0)


@pytest.fixture(scope="module")
def corpus():
    flights = generate_flight_dataset(FlightDatasetConfig(n_flights=90), seed=23)
    features = features_dataset(flights)
    split = int(len(flights) * 0.8)
    return flights, features, split


@pytest.fixture(scope="module")
def hybrid(corpus):
    _, features, split = corpus
    model = HybridClusteringHMM()
    model.fit(features[:split])
    return model


@pytest.fixture(scope="module")
def blind(corpus):
    flights, _, split = corpus
    model = BlindHMMPredictor(SPAIN, cols=64, rows=64)
    model.fit([f.trajectory for f in flights[:split]])
    return model


def test_fig5b_waypoint_rmse(corpus, hybrid, console, benchmark):
    _, features, split = corpus
    evaluation = hybrid.evaluate(features[split:])
    best, worst = evaluation.rmse_range()
    # Per-cluster pooled RMSE, mirroring the per-cluster bands of Fig 5b.
    per_cluster: dict[int, list[float]] = {}
    for flight in features[split:]:
        cluster = hybrid.select_cluster(flight)
        predicted = hybrid.predict_deviations(flight)
        errs = [p - a for p, a in zip(predicted, flight.deviations_m)]
        per_cluster.setdefault(cluster, []).extend(errs)
    rows = [[f"cluster {cid}", len(errors), f"{rmse(errors):.0f} m"] for cid, errors in sorted(per_cluster.items())]
    with console():
        print(format_table(
            "Figure 5b: per-waypoint deviation prediction "
            "(paper: 183-736 m RMSE across clusters)",
            ["cluster", "waypoints", "RMSE"],
            rows,
        ))
        print(f"pooled RMSE: {evaluation.pooled_rmse_m:.0f} m; per-flight range {best:.0f}-{worst:.0f} m; "
              f"{hybrid.report.n_clusters} clusters from {hybrid.report.n_training_flights} flights")
    assert evaluation.pooled_rmse_m < 1500.0
    benchmark(lambda: hybrid.predict_deviations(features[split]))


def test_fig5b_accuracy_vs_blind(corpus, hybrid, blind, console, benchmark):
    """Hybrid must beat the blind HMM on cross-track error by a wide factor."""
    flights, features, split = corpus
    hybrid_errors = []
    blind_errors = []
    for flight, feats in zip(flights[split:], features[split:]):
        # Hybrid: predicted track = plan shifted by predicted deviations;
        # cross-track error of the actual track against that prediction.
        predicted = hybrid.predict_deviations(feats)
        residual = [p - a for p, a in zip(predicted, feats.deviations_m)]
        hybrid_errors.append(rmse(residual))
        blind_errors.append(blind.cross_track_rmse(flight.trajectory))
    hybrid_rmse = sum(hybrid_errors) / len(hybrid_errors)
    blind_rmse = sum(blind_errors) / len(blind_errors)
    with console():
        print(f"\ncross-track RMSE: hybrid={hybrid_rmse:.0f} m vs blind HMM={blind_rmse:.0f} m "
              f"=> {blind_rmse / hybrid_rmse:.1f}x better (paper: >= 10x)")
    assert blind_rmse / hybrid_rmse > 5.0
    benchmark(lambda: blind.cross_track_rmse(flights[split].trajectory))


def test_fig5b_resource_comparison(hybrid, blind, console, benchmark):
    """Paper: 2-3 orders of magnitude fewer processing/storage resources."""
    hybrid_params = hybrid.report.total_parameters
    blind_params = blind.report.total_parameters
    ratio = blind_params / max(1, hybrid_params)
    rows = [
        ["hybrid clustering/HMM", f"{hybrid_params:,}", f"{hybrid.report.train_seconds:.2f} s"],
        ["blind HMM (grid states)", f"{blind_params:,}", f"{blind.report.train_seconds:.2f} s"],
    ]
    with console():
        print(format_table(
            "Figure 5b resources (paper: hybrid uses 100-1000x less)",
            ["model", "parameters", "train time"],
            rows,
            width=24,
        ))
        print(f"parameter ratio: {ratio:,.0f}x")
    assert ratio > 100.0
    benchmark(lambda: hybrid.report.total_parameters)
