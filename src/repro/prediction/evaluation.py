"""Evaluation harnesses for the FLP and TP experiments (Figure 5).

* :func:`flp_horizon_sweep` reproduces the Figure 5(a) protocol: walk a
  trajectory online, at each step predict the next ``k`` positions, and
  accumulate the 2-D spatial error per look-ahead step.
* :func:`waypoint_rmse` reproduces the Figure 5(b) metric: RMSE of the
  predicted vs. actual per-waypoint deviation, per cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..geo import PositionFix, Trajectory, haversine_m

from .rmf import PredictedPoint


class OnlinePredictor(Protocol):
    """What an FLP predictor must expose to be benchmarked."""

    name: str

    def observe(self, fix: PositionFix) -> None: ...
    def predict(self, k: int, step_s: float | None = None) -> list[PredictedPoint]: ...
    def ready(self) -> bool: ...
    def reset(self) -> None: ...


@dataclass
class HorizonErrors:
    """Per-look-ahead-step error accumulation."""

    k: int
    errors_m: list[list[float]]

    @classmethod
    def empty(cls, k: int) -> "HorizonErrors":
        return cls(k, [[] for _ in range(k)])

    def add(self, step: int, error_m: float) -> None:
        self.errors_m[step].append(error_m)

    def mean(self, step: int) -> float:
        e = self.errors_m[step]
        return sum(e) / len(e) if e else math.nan

    def stdev(self, step: int) -> float:
        e = self.errors_m[step]
        if len(e) < 2:
            return math.nan
        m = self.mean(step)
        return math.sqrt(sum((x - m) ** 2 for x in e) / len(e))

    def count(self, step: int) -> int:
        return len(self.errors_m[step])

    def summary_rows(self, step_s: float) -> list[dict[str, float]]:
        """One row per look-ahead step: seconds ahead, mean, stdev, n."""
        return [
            {
                "lookahead_s": (i + 1) * step_s,
                "mean_m": self.mean(i),
                "stdev_m": self.stdev(i),
                "n": self.count(i),
            }
            for i in range(self.k)
        ]


def flp_horizon_sweep(
    predictor: OnlinePredictor,
    trajectory: Trajectory,
    k: int = 8,
    warmup: int = 8,
    stride: int = 1,
) -> HorizonErrors:
    """Online walk-forward evaluation of an FLP predictor on one trajectory.

    At each position (after ``warmup``), the predictor sees the history up
    to that point and predicts ``k`` steps ahead; each prediction is scored
    against the actual future fix by 2-D great-circle distance — the error
    measure of Figure 5(a).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    predictor.reset()
    fixes = list(trajectory)
    errors = HorizonErrors.empty(k)
    for i, fix in enumerate(fixes):
        predictor.observe(fix)
        if i < warmup or i % stride != 0:
            continue
        remaining = len(fixes) - 1 - i
        if remaining < 1:
            break
        horizon = min(k, remaining)
        step_s = fixes[i + 1].t - fix.t if fixes[i + 1].t > fix.t else None
        try:
            predictions = predictor.predict(horizon, step_s=step_s)
        except RuntimeError:
            continue
        for step, predicted in enumerate(predictions):
            actual = fixes[i + 1 + step]
            errors.add(step, haversine_m(predicted.lon, predicted.lat, actual.lon, actual.lat))
    return errors


def flp_sweep_many(
    predictor: OnlinePredictor,
    trajectories: Sequence[Trajectory],
    k: int = 8,
    warmup: int = 8,
    stride: int = 1,
) -> HorizonErrors:
    """Pooled horizon sweep over many trajectories (predictor reset per track)."""
    pooled = HorizonErrors.empty(k)
    for trajectory in trajectories:
        errors = flp_horizon_sweep(predictor, trajectory, k=k, warmup=warmup, stride=stride)
        for step in range(k):
            pooled.errors_m[step].extend(errors.errors_m[step])
    return pooled


def rmse(values: Sequence[float]) -> float:
    """Root mean square of a sequence (nan for empty)."""
    if not values:
        return math.nan
    return math.sqrt(sum(v * v for v in values) / len(values))


def waypoint_rmse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """RMSE between predicted and actual per-waypoint deviations (metres)."""
    if len(predicted) != len(actual):
        raise ValueError("deviation sequences differ in length")
    return rmse([p - a for p, a in zip(predicted, actual)])
