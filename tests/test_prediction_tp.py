"""Tests for the TP stack: features, ERP, OPTICS, HMMs, hybrid, blind."""

import math

import pytest

from repro.datasources import FlightDatasetConfig, generate_flight_dataset
from repro.geo import BBox
from repro.prediction import (
    BlindHMMPredictor,
    DeviationBins,
    DeviationHMM,
    EnrichedPoint,
    GaussianHMM,
    HybridClusteringHMM,
    erp_distance,
    extract_features,
    features_dataset,
    flight_distance,
    rmse,
    semt_optics,
    signed_waypoint_deviations,
    waypoint_rmse,
)

SPAIN = BBox(-7.0, 36.0, 4.0, 44.0)


@pytest.fixture(scope="module")
def flights():
    return generate_flight_dataset(FlightDatasetConfig(n_flights=40), seed=23)


@pytest.fixture(scope="module")
def corpus(flights):
    return features_dataset(flights)


class TestFeatures:
    def test_deviations_per_waypoint(self, flights):
        devs = signed_waypoint_deviations(flights[0])
        assert len(devs) == len(flights[0].plan.waypoints)
        assert all(abs(d) < 30_000.0 for d in devs)

    def test_extract_features_covariates(self, flights):
        feats = extract_features(flights[0])
        assert len(feats.points) == len(feats.deviations_m)
        assert len(feats.points[0].covariates) == 3
        assert 0.0 <= feats.hour_of_day < 24.0

    def test_route_key(self, flights):
        feats = extract_features(flights[0])
        assert "-" in feats.route_key


def pt(lon, lat, cov=()):
    return EnrichedPoint(lon, lat, 0.0, 0.0, tuple(cov))


class TestERP:
    def test_identity_zero(self):
        seq = [pt(0.0, 40.0), pt(0.1, 40.0)]
        assert erp_distance(seq, seq) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        a = [pt(0.0, 40.0), pt(0.1, 40.0)]
        b = [pt(0.0, 40.1), pt(0.2, 40.1), pt(0.3, 40.2)]
        assert erp_distance(a, b) == pytest.approx(erp_distance(b, a), rel=1e-6)

    def test_triangle_inequality(self):
        a = [pt(0.0, 40.0), pt(0.1, 40.0)]
        b = [pt(0.0, 40.1), pt(0.2, 40.1)]
        c = [pt(0.5, 40.3), pt(0.6, 40.4)]
        ab = erp_distance(a, b)
        bc = erp_distance(b, c)
        ac = erp_distance(a, c)
        assert ac <= ab + bc + 1e-6

    def test_empty_sequences(self):
        assert erp_distance([], []) == 0.0
        assert erp_distance([pt(0.1, 40.0)], []) > 0.0

    def test_semantic_weight_separates(self):
        a = [pt(0.0, 40.0, (10.0,))]
        b = [pt(0.0, 40.0, (0.0,))]
        assert erp_distance(a, b, semantic_weight=0.0) == pytest.approx(0.0, abs=1e-9)
        assert erp_distance(a, b, semantic_weight=1.0) == pytest.approx(10.0)

    def test_flight_distance_variant_separation(self, corpus):
        """Flights on the same route variant are closer than across variants."""
        by_variant = {}
        for f in corpus:
            if f.route_key == corpus[0].route_key:
                by_variant.setdefault(f.variant, []).append(f)
        variants = [v for v in by_variant.values() if len(v) >= 2]
        if len(variants) < 2:
            pytest.skip("dataset lacks multi-variant coverage")
        same = flight_distance(variants[0][0], variants[0][1])
        cross = flight_distance(variants[0][0], variants[1][0])
        assert same < cross


class TestOptics:
    def test_recovers_route_variants(self, corpus):
        result = semt_optics(corpus, flight_distance, threshold=30.0, min_pts=3, min_cluster_size=3)
        assert result.n_clusters >= 2
        # Clusters should be (mostly) pure in (route, variant).
        for cluster_id in result.medoids:
            members = [corpus[i] for i in result.members(cluster_id)]
            keys = {(m.route_key, m.variant) for m in members}
            assert len(keys) == 1

    def test_medoid_is_member(self, corpus):
        result = semt_optics(corpus, flight_distance, threshold=30.0, min_pts=3)
        for cluster_id, medoid in result.medoids.items():
            assert medoid in result.members(cluster_id)

    def test_empty_input(self):
        result = semt_optics([], flight_distance, threshold=1.0)
        assert result.n_clusters == 0

    def test_min_pts_validation(self, corpus):
        with pytest.raises(ValueError):
            semt_optics(corpus[:5], flight_distance, threshold=1.0, min_pts=1)


class TestGaussianHMM:
    def test_supervised_fit_transitions(self):
        hmm = GaussianHMM(2, 1)
        states = [[0, 0, 1, 1], [0, 1, 1, 0]]
        obs = [[[0.0], [0.1], [5.0], [5.1]], [[0.2], [4.9], [5.2], [0.3]]]
        hmm.fit_supervised(states, obs)
        # State 0 emits ~0, state 1 emits ~5.
        assert hmm.means[0][0] < 1.0
        assert hmm.means[1][0] > 4.0
        # Rows are stochastic.
        assert hmm.transitions.sum(axis=1) == pytest.approx([1.0, 1.0])

    def test_viterbi_decodes_emissions(self):
        hmm = GaussianHMM(2, 1)
        hmm.fit_supervised([[0, 1, 0, 1]], [[[0.0], [5.0], [0.1], [5.1]]])
        path = hmm.viterbi([[0.05], [4.9], [0.0]])
        assert path == [0, 1, 0]

    def test_mismatched_sequences(self):
        hmm = GaussianHMM(2, 1)
        with pytest.raises(ValueError):
            hmm.fit_supervised([[0]], [[[0.0]], [[1.0]]])

    def test_empty_viterbi(self):
        assert GaussianHMM(2, 1).viterbi([]) == []

    def test_parameter_count(self):
        assert GaussianHMM(3, 2).parameter_count() == 3 + 9 + 12


class TestDeviationBins:
    def test_state_roundtrip(self):
        bins = DeviationBins(limit_m=1000.0, n_bins=10)
        for dev in [-900.0, -50.0, 0.0, 450.0, 999.0]:
            state = bins.state_of(dev)
            assert abs(bins.center_of(state) - dev) <= 2000.0 / 10

    def test_clamping(self):
        bins = DeviationBins(limit_m=1000.0, n_bins=10)
        assert bins.state_of(-99999.0) == 0
        assert bins.state_of(99999.0) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviationBins(limit_m=0.0, n_bins=10)
        with pytest.raises(ValueError):
            DeviationBins(limit_m=10.0, n_bins=1)
        with pytest.raises(ValueError):
            DeviationBins(limit_m=10.0, n_bins=4).center_of(4)


class TestDeviationHMM:
    def test_learns_covariate_driven_deviations(self):
        """Deviation = 100 * crosswind: the HMM must recover the mapping."""
        bins = DeviationBins(limit_m=2000.0, n_bins=9)
        model = DeviationHMM(bins, 1)
        import random

        rng = random.Random(5)
        devs, covs = [], []
        for _ in range(60):
            winds = [rng.uniform(-15.0, 15.0) for _ in range(6)]
            devs.append([100.0 * w for w in winds])
            covs.append([[w] for w in winds])
        model.fit(devs, covs)
        test_winds = [10.0, -10.0, 0.0]
        predicted = model.predict_deviations([[w] for w in test_winds])
        for pred, wind in zip(predicted, test_winds):
            assert abs(pred - 100.0 * wind) < 500.0


class TestHybrid:
    def test_fit_and_evaluate(self, corpus):
        train, test = corpus[: int(len(corpus) * 0.75)], corpus[int(len(corpus) * 0.75) :]
        model = HybridClusteringHMM()
        report = model.fit(train)
        assert report.n_clusters >= 1
        assert report.total_parameters > 0
        evaluation = model.evaluate(test)
        assert not math.isnan(evaluation.pooled_rmse_m)
        # Sub-kilometre pooled accuracy, in the spirit of the 183-736 m band.
        assert evaluation.pooled_rmse_m < 2500.0

    def test_predict_before_fit(self, corpus):
        with pytest.raises(RuntimeError):
            HybridClusteringHMM().predict_deviations(corpus[0])

    def test_empty_fit(self):
        with pytest.raises(ValueError):
            HybridClusteringHMM().fit([])

    def test_cluster_selection_prefers_same_variant(self, corpus):
        model = HybridClusteringHMM()
        model.fit(corpus)
        if model.clustering is None or model.clustering.n_clusters < 2:
            pytest.skip("not enough clusters")
        for flight in corpus[:5]:
            cluster_id = model.select_cluster(flight)
            assert cluster_id is not None


class TestBlind:
    def test_fit_and_predict(self, flights):
        tracks = [f.trajectory for f in flights]
        blind = BlindHMMPredictor(SPAIN, cols=40, rows=40)
        report = blind.fit(tracks)
        assert report.n_states > 0
        assert report.total_parameters > 1_000_000  # the grid-squared blow-up
        first = tracks[0][0]
        path = blind.predict_path(first.lon, first.lat)
        assert len(path) > 1

    def test_cross_track_rmse_positive(self, flights):
        tracks = [f.trajectory for f in flights]
        blind = BlindHMMPredictor(SPAIN, cols=40, rows=40)
        blind.fit(tracks)
        err = blind.cross_track_rmse(tracks[0])
        assert err > 0.0

    def test_unfitted_raises(self):
        blind = BlindHMMPredictor(SPAIN)
        with pytest.raises(RuntimeError):
            blind.predict_path(0.0, 40.0)

    def test_empty_fit(self):
        with pytest.raises(ValueError):
            BlindHMMPredictor(SPAIN).fit([])


class TestMetrics:
    def test_rmse(self):
        assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
        assert math.isnan(rmse([]))

    def test_waypoint_rmse(self):
        assert waypoint_rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert waypoint_rmse([1.0], [0.0]) == 1.0
        with pytest.raises(ValueError):
            waypoint_rmse([1.0], [1.0, 2.0])
