"""The Hybrid Clustering/HMM trajectory predictor (Section 5, Figure 5b).

The two-stage rationale of the paper:

1. **Clustering** — partition the historic enriched trajectories with
   SemT-OPTICS under a semantic-aware ERP distance, so each cluster is a
   coherent route/behaviour family, and keep each cluster's **medoid**
   as its reference-point skeleton.
2. **Per-cluster HMM** — for each cluster, train a
   :class:`~repro.prediction.hmm.DeviationHMM` on the members'
   per-waypoint deviations and enrichment covariates.

Prediction for a new flight: select the model of the nearest cluster
(by ERP distance to the medoids), decode the flight's covariates with
Viterbi, and emit the predicted per-waypoint deviations — which, applied
to the flight plan, give the full predicted trajectory. Accuracy is
evaluated as per-waypoint RMSE; resources as total model parameters —
the two axes of the paper's comparison against the "blind" HMM.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from .clustering import OpticsResult, semt_optics
from .distances import flight_distance
from .evaluation import waypoint_rmse
from .features import FlightFeatures
from .hmm import DeviationBins, DeviationHMM


@dataclass
class HybridModelReport:
    """Training accounting (resource axis of the Figure 5b comparison)."""

    n_training_flights: int = 0
    n_clusters: int = 0
    n_noise: int = 0
    total_parameters: int = 0
    train_seconds: float = 0.0


class HybridClusteringHMM:
    """The full hybrid TP model."""

    #: SemT-OPTICS settings: the reachability cut (km), the core-point
    #: neighbourhood and the smallest cluster kept.
    cluster_threshold_km = 25.0
    min_pts = 3
    min_cluster_size = 3

    def __init__(self, bins: DeviationBins | None = None):
        self.bins = bins or DeviationBins(limit_m=4000.0, n_bins=17)
        self._models: dict[int, DeviationHMM] = {}
        self._medoids: dict[int, FlightFeatures] = {}
        self._fallback: DeviationHMM | None = None
        self.clustering: OpticsResult | None = None
        self.report = HybridModelReport()

    def fit(self, flights: Sequence[FlightFeatures]) -> HybridModelReport:
        """Cluster the corpus and train one deviation HMM per cluster."""
        if not flights:
            raise ValueError("cannot fit on an empty corpus")
        start = time.perf_counter()
        self.clustering = semt_optics(
            flights,
            flight_distance,
            threshold=self.cluster_threshold_km,
            min_pts=self.min_pts,
            min_cluster_size=self.min_cluster_size,
        )
        n_cov = len(flights[0].points[0].covariates) if flights[0].points else 1
        self._models.clear()
        self._medoids.clear()
        for cluster_id, medoid_idx in self.clustering.medoids.items():
            members = [flights[i] for i in self.clustering.members(cluster_id)]
            model = DeviationHMM(self.bins, n_cov)
            model.fit(
                [list(m.deviations_m) for m in members],
                [[list(p.covariates) for p in m.points] for m in members],
            )
            self._models[cluster_id] = model
            self._medoids[cluster_id] = flights[medoid_idx]
        # Fallback model over everything, for flights landing in no cluster.
        self._fallback = DeviationHMM(self.bins, n_cov)
        self._fallback.fit(
            [list(m.deviations_m) for m in flights],
            [[list(p.covariates) for p in m.points] for m in flights],
        )
        self.report = HybridModelReport(
            n_training_flights=len(flights),
            n_clusters=len(self._models),
            n_noise=sum(1 for lbl in self.clustering.labels if lbl < 0),
            total_parameters=sum(m.parameter_count() for m in self._models.values()),
            train_seconds=time.perf_counter() - start,
        )
        return self.report

    def select_cluster(self, flight: FlightFeatures) -> int | None:
        """The nearest cluster (by medoid ERP distance), or None."""
        if not self._medoids:
            return None
        best_id, best_d = None, math.inf
        for cluster_id, medoid in self._medoids.items():
            d = flight_distance(flight, medoid)
            if d < best_d:
                best_id, best_d = cluster_id, d
        return best_id

    def predict_deviations(self, flight: FlightFeatures) -> list[float]:
        """Predicted signed per-waypoint deviations for a new flight."""
        if self._fallback is None:
            raise RuntimeError("model is not fitted")
        covariates = [list(p.covariates) for p in flight.points]
        cluster_id = self.select_cluster(flight)
        model = self._models.get(cluster_id, self._fallback) if cluster_id is not None else self._fallback
        return model.predict_deviations(covariates)

    def evaluate(self, flights: Sequence[FlightFeatures]) -> "HybridEvaluation":
        """Per-flight and pooled waypoint RMSE on held-out flights."""
        per_flight: dict[str, float] = {}
        all_pred: list[float] = []
        all_true: list[float] = []
        for flight in flights:
            predicted = self.predict_deviations(flight)
            per_flight[flight.flight_id] = waypoint_rmse(predicted, list(flight.deviations_m))
            all_pred.extend(predicted)
            all_true.extend(flight.deviations_m)
        pooled = waypoint_rmse(all_pred, all_true) if all_pred else math.nan
        return HybridEvaluation(per_flight=per_flight, pooled_rmse_m=pooled)


@dataclass
class HybridEvaluation:
    """Evaluation outputs of the hybrid model."""

    per_flight: dict[str, float]
    pooled_rmse_m: float

    def rmse_range(self) -> tuple[float, float]:
        """(best, worst) per-flight RMSE — the paper quotes a 183..736 m band."""
        values = sorted(self.per_flight.values())
        if not values:
            return (math.nan, math.nan)
        return values[0], values[-1]
