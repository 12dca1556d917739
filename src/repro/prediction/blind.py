"""The "blind" HMM baseline (Section 5's comparison, the paper's [8][9]).

A trajectory predictor that ignores flight plans and enrichment
entirely: it quantizes raw positions into grid cells, treats the cells
as hidden states, learns cell-to-cell transition statistics from raw
historic tracks, and predicts a trajectory by following the most likely
transition chain from the departure cell. This is what the paper calls
"blind approaches exploiting raw trajectory data", against which the
hybrid method shows an order of magnitude better cross-track accuracy
with orders of magnitude fewer resources (the blind model's state space
is the whole spatial grid).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geo import BBox, EquiGrid, PositionFix, Trajectory, cross_track_error_m


@dataclass
class BlindModelReport:
    """Training accounting (resource axis of the comparison)."""

    n_states: int = 0
    n_nonzero_transitions: int = 0
    total_parameters: int = 0
    train_seconds: float = 0.0


class BlindHMMPredictor:
    """Grid-state Markov model over raw positions."""

    #: The resampling period of training trajectories and predicted paths.
    step_s = 30.0

    def __init__(self, bbox: BBox, cols: int = 80, rows: int = 80):
        self.grid = EquiGrid(bbox, cols, rows)
        self._transitions: dict[int, dict[int, int]] = {}
        self._cell_means: dict[int, tuple[float, float, float, int]] = {}  # sums for mean
        self.report = BlindModelReport()

    def fit(self, trajectories: Sequence[Trajectory]) -> BlindModelReport:
        """Learn cell transition counts and per-cell mean positions."""
        if not trajectories:
            raise ValueError("cannot fit on an empty corpus")
        start = time.perf_counter()
        self._transitions.clear()
        self._cell_means.clear()
        for trajectory in trajectories:
            resampled = trajectory.resampled(self.step_s)
            prev_cell: int | None = None
            for fix in resampled:
                cell = self.grid.cell_id(fix.lon, fix.lat)
                lon_s, lat_s, alt_s, n = self._cell_means.get(cell, (0.0, 0.0, 0.0, 0))
                self._cell_means[cell] = (lon_s + fix.lon, lat_s + fix.lat, alt_s + fix.alt, n + 1)
                if prev_cell is not None and prev_cell != cell:
                    row = self._transitions.setdefault(prev_cell, {})
                    row[cell] = row.get(cell, 0) + 1
                prev_cell = cell
        nonzero = sum(len(row) for row in self._transitions.values())
        self.report = BlindModelReport(
            n_states=len(self._cell_means),
            n_nonzero_transitions=nonzero,
            # Dense-parameter accounting: a classic HMM over the full grid
            # carries |S|^2 transitions plus 2-D Gaussian emissions per state.
            total_parameters=len(self.grid) * len(self.grid) + 4 * len(self.grid),
            train_seconds=time.perf_counter() - start,
        )
        return self.report

    def _cell_center(self, cell: int) -> tuple[float, float, float]:
        lon_s, lat_s, alt_s, n = self._cell_means[cell]
        return lon_s / n, lat_s / n, alt_s / n

    def predict_path(self, start_lon: float, start_lat: float) -> list[tuple[float, float, float]]:
        """Follow maximum-likelihood transitions from the start cell.

        Stops at an absorbing cell (no outgoing transitions), when a cycle
        is revisited, or after 400 steps.
        """
        cell = self.grid.cell_id(start_lon, start_lat)
        if cell not in self._cell_means:
            # Snap to the nearest trained cell.
            if not self._cell_means:
                raise RuntimeError("model is not fitted")
            cell = min(
                self._cell_means,
                key=lambda c: self._planar2(c, start_lon, start_lat),
            )
        path = [self._cell_center(cell)]
        visited = {cell}
        for _ in range(400):
            row = self._transitions.get(cell)
            if not row:
                break
            cell = max(row, key=lambda c: (row[c], -c))
            if cell in visited:
                break
            visited.add(cell)
            path.append(self._cell_center(cell))
        return path

    def _planar2(self, cell: int, lon: float, lat: float) -> float:
        clon, clat, _ = self._cell_center(cell)
        return (clon - lon) ** 2 + (clat - lat) ** 2

    def predicted_trajectory(self, entity_id: str, start_lon: float, start_lat: float, t0: float = 0.0) -> Trajectory:
        """The predicted path as a Trajectory (uniform step timing)."""
        path = self.predict_path(start_lon, start_lat)
        fixes = [
            PositionFix(entity_id=entity_id, t=t0 + i * self.step_s, lon=lon, lat=lat, alt=alt)
            for i, (lon, lat, alt) in enumerate(path)
        ]
        return Trajectory(entity_id, fixes)

    def cross_track_rmse(self, actual: Trajectory) -> float:
        """Cross-track RMSE of the blind prediction against an actual track."""
        first = actual[0]
        predicted = self.predicted_trajectory(actual.entity_id, first.lon, first.lat, first.t)
        if len(predicted) < 2:
            raise RuntimeError("blind prediction degenerate (single cell)")
        errors = cross_track_error_m(list(actual), list(predicted))
        return float(np.sqrt(np.mean(np.square(errors))))
