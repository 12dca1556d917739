"""Hidden Markov Models over reference points (Section 5).

A Gaussian-emission HMM with supervised training: the hybrid TP method
quantizes per-waypoint deviations into hidden states, extracts
transition statistics by counting over historic flights (the paper:
probabilities "typically extracted by analyzing historic data") and
models the enrichment covariates as state-conditional Gaussian
emissions. Decoding a new flight's covariate sequence with Viterbi
yields the most likely deviation-state sequence — i.e. the predicted
deviations from the flight plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_LOG_EPS = 1e-12


class GaussianHMM:
    """Discrete-state HMM with diagonal-Gaussian emissions."""

    def __init__(self, n_states: int, n_dims: int):
        if n_states < 1 or n_dims < 1:
            raise ValueError("need at least one state and one dimension")
        self.n_states = n_states
        self.n_dims = n_dims
        self.initial = np.full(n_states, 1.0 / n_states)
        self.transitions = np.full((n_states, n_states), 1.0 / n_states)
        self.means = np.zeros((n_states, n_dims))
        self.variances = np.ones((n_states, n_dims))

    # -- supervised training ----------------------------------------------------

    def fit_supervised(
        self,
        state_sequences: Sequence[Sequence[int]],
        observation_sequences: Sequence[Sequence[Sequence[float]]],
    ) -> None:
        """Count-based fit from labelled sequences (with add-one Laplace smoothing)."""
        if len(state_sequences) != len(observation_sequences):
            raise ValueError("state and observation sequence counts differ")
        n = self.n_states
        init_counts = np.ones(n)
        trans_counts = np.ones((n, n))
        obs_by_state: list[list[np.ndarray]] = [[] for _ in range(n)]
        for states, observations in zip(state_sequences, observation_sequences):
            if len(states) != len(observations):
                raise ValueError("sequence length mismatch")
            if not states:
                continue
            init_counts[states[0]] += 1.0
            for a, b in zip(states, states[1:]):
                trans_counts[a][b] += 1.0
            for s, obs in zip(states, observations):
                obs_by_state[s].append(np.asarray(obs, dtype=float))
        self.initial = init_counts / init_counts.sum()
        self.transitions = trans_counts / trans_counts.sum(axis=1, keepdims=True)
        for s in range(n):
            if obs_by_state[s]:
                stacked = np.stack(obs_by_state[s])
                self.means[s] = stacked.mean(axis=0)
                self.variances[s] = np.maximum(stacked.var(axis=0), 1e-6)
            # States never observed keep the neutral prior (zero-mean, unit var).

    # -- inference ---------------------------------------------------------------

    def _log_emission(self, obs: np.ndarray) -> np.ndarray:
        """log p(obs | state) for every state (diagonal Gaussian)."""
        diff = obs[None, :] - self.means
        log_det = np.log(2.0 * math.pi * self.variances).sum(axis=1)
        mahal = (diff * diff / self.variances).sum(axis=1)
        return -0.5 * (log_det + mahal)

    def viterbi(self, observations: Sequence[Sequence[float]]) -> list[int]:
        """The most likely hidden-state path for an observation sequence."""
        if not observations:
            return []
        obs = np.asarray(observations, dtype=float)
        T = len(obs)
        log_init = np.log(self.initial + _LOG_EPS)
        log_trans = np.log(self.transitions + _LOG_EPS)
        delta = log_init + self._log_emission(obs[0])
        back = np.zeros((T, self.n_states), dtype=int)
        for t in range(1, T):
            scores = delta[:, None] + log_trans
            back[t] = scores.argmax(axis=0)
            delta = scores.max(axis=0) + self._log_emission(obs[t])
        path = [int(delta.argmax())]
        for t in range(T - 1, 0, -1):
            path.append(int(back[t][path[-1]]))
        path.reverse()
        return path

    def parameter_count(self) -> int:
        """Free parameters: the resource-consumption metric of the comparison."""
        return (
            self.n_states                      # initial
            + self.n_states * self.n_states    # transitions
            + 2 * self.n_states * self.n_dims  # means + variances
        )


@dataclass(frozen=True, slots=True)
class DeviationBins:
    """Uniform quantization of signed deviations into HMM states."""

    limit_m: float
    n_bins: int

    def __post_init__(self):
        if self.n_bins < 2 or self.limit_m <= 0:
            raise ValueError("need n_bins >= 2 and a positive limit")

    def state_of(self, deviation_m: float) -> int:
        """The bin index of a deviation (clamped to the limits)."""
        clamped = min(max(deviation_m, -self.limit_m), self.limit_m)
        frac = (clamped + self.limit_m) / (2.0 * self.limit_m)
        return min(self.n_bins - 1, int(frac * self.n_bins))

    def center_of(self, state: int) -> float:
        """The representative deviation of a bin."""
        if not 0 <= state < self.n_bins:
            raise ValueError(f"state {state} out of range")
        width = 2.0 * self.limit_m / self.n_bins
        return -self.limit_m + (state + 0.5) * width


class DeviationHMM:
    """An HMM over quantized per-waypoint deviations with covariate emissions."""

    def __init__(self, bins: DeviationBins, n_covariates: int):
        self.bins = bins
        self.hmm = GaussianHMM(bins.n_bins, n_covariates)

    def fit(self, deviation_seqs: Sequence[Sequence[float]], covariate_seqs: Sequence[Sequence[Sequence[float]]]) -> None:
        """Supervised fit from historic (deviation, covariate) sequences."""
        state_seqs = [[self.bins.state_of(d) for d in seq] for seq in deviation_seqs]
        self.hmm.fit_supervised(state_seqs, covariate_seqs)

    def predict_deviations(self, covariates: Sequence[Sequence[float]]) -> list[float]:
        """Predicted signed deviation per waypoint for a new flight."""
        path = self.hmm.viterbi(covariates)
        return [self.bins.center_of(s) for s in path]

    def parameter_count(self) -> int:
        return self.hmm.parameter_count()
