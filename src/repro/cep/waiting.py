"""Waiting-time distributions and forecast intervals (Section 6, Figure 7).

For every PMC state the *waiting-time distribution* answers: how probable
is it that the DFA first reaches a final state (i.e. a complex event is
detected) exactly ``k`` steps from now? Forecasts are then intervals
``I = (start, end)``: the smallest window whose cumulative waiting-time
probability exceeds the user threshold θ — produced by a single-pass
scan of the distribution, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import PatternMarkovChain


def waiting_time_distribution(pmc: PatternMarkovChain, state: int, horizon: int) -> np.ndarray:
    """P(first detection happens at step k), k = 1..horizon, from ``state``.

    Computed by propagating the state distribution while absorbing the
    probability mass that enters a detection state at each step.
    """
    if not 0 <= state < pmc.n_states:
        raise ValueError(f"state {state} out of range")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    v = np.zeros(pmc.n_states)
    v[state] = 1.0
    w = np.zeros(horizon)
    for k in range(horizon):
        v = v @ pmc.matrix
        mass = float(v[pmc.final_mask].sum())
        w[k] = mass
        v = v.copy()
        v[pmc.final_mask] = 0.0   # absorbed: only *first* hits count
    return w


def all_waiting_time_distributions(pmc: PatternMarkovChain, horizon: int) -> np.ndarray:
    """The waiting-time distribution of every PMC state, as an (n, horizon) array."""
    return np.stack([waiting_time_distribution(pmc, s, horizon) for s in range(pmc.n_states)])


@dataclass(frozen=True, slots=True)
class ForecastInterval:
    """A forecast: detection expected within [start, end] steps, with confidence."""

    start: int
    end: int
    probability: float

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def forecast_interval(waiting: np.ndarray, threshold: float) -> ForecastInterval | None:
    """The smallest interval whose probability mass is at least ``threshold``.

    Single-pass two-pointer scan over the distribution (steps are 1-based).
    Returns None when even the whole horizon doesn't reach the threshold.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    n = len(waiting)
    best: ForecastInterval | None = None
    left = 0
    mass = 0.0
    for right in range(n):
        mass += float(waiting[right])
        while mass - waiting[left] >= threshold and left < right:
            mass -= float(waiting[left])
            left += 1
        if mass >= threshold:
            candidate = ForecastInterval(left + 1, right + 1, mass)
            if best is None or candidate.length < best.length or (
                candidate.length == best.length and candidate.probability > best.probability
            ):
                best = candidate
    return best


def forecast_table(pmc: PatternMarkovChain, threshold: float, horizon: int) -> list[ForecastInterval | None]:
    """Precomputed forecast interval per PMC state (None = no confident forecast)."""
    distributions = all_waiting_time_distributions(pmc, horizon)
    return [forecast_interval(distributions[s], threshold) for s in range(pmc.n_states)]
