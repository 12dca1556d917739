"""Future Location Prediction: RMF and the enhanced RMF* (Section 5).

**RMF** (Tao et al., the paper's [31]) captures the motion dynamics of an
entity in a differential recursive formula: the next position is a
learned linear combination of the ``f`` most recent positions,

    z_{n+1} = c_1 z_n + c_2 z_{n-1} + ... + c_f z_{n-f+1},

with the coefficients re-fitted over the recent window (least squares).
Iterating the recursion yields the next ``k`` positions. RMF can express
linear, polynomial and circular motions, but — as the paper observes —
it degrades badly through the non-linear phases of real flights.

**RMF*** is datAcron's enhancement: it runs in *linear mode* (constant-
velocity extrapolation, which is optimal on the steady parts of a
flight) and switches to *pattern-matching mode* only when a shift in
motion type is signalled — here detected from heading/vertical-rate
drift, exactly the critical-point triggers of the synopses generator.
In pattern mode it fits a small library of motion primitives (linear,
circular/quadratic via the RMF recursion of different orders) and uses
the best-fitting one. Both predictors are online: O(f) state, O(f^3)
fit per step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..geo import LocalProjection, PositionFix
from ..geo.units import heading_difference


@dataclass(frozen=True, slots=True)
class PredictedPoint:
    """One predicted future position."""

    t: float
    lon: float
    lat: float
    alt: float = 0.0


class RMFPredictor:
    """The base Recursive Motion Function predictor.

    Works on a sliding window of the last ``window`` positions (projected
    to a local plane), fitting an order-``f`` linear recursion per axis.
    """

    name = "rmf"

    def __init__(self, f: int = 3, window: int = 12):
        if f < 1:
            raise ValueError("recursion order f must be >= 1")
        if window < 2 * f:
            raise ValueError("window must be at least 2*f to fit the recursion")
        self.f = f
        self.window = window
        self._fixes: deque[PositionFix] = deque(maxlen=window)

    def observe(self, fix: PositionFix) -> None:
        """Feed the next observed position."""
        self._fixes.append(fix)

    def reset(self) -> None:
        self._fixes.clear()

    def ready(self) -> bool:
        return len(self._fixes) >= self.f + 1

    def _fit_coefficients(self, series: np.ndarray) -> np.ndarray | None:
        """Least-squares fit of the order-f recursion to one axis."""
        f = self.f
        n = len(series)
        if n < f + 1:
            return None
        rows = n - f
        A = np.empty((rows, f))
        b = np.empty(rows)
        for i in range(rows):
            A[i] = series[i : i + f][::-1]
            b[i] = series[i + f]
        coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
        return coeffs

    def predict(self, k: int, step_s: float | None = None) -> list[PredictedPoint]:
        """Predict the next ``k`` positions."""
        if not self.ready():
            raise RuntimeError("not enough history to predict")
        fixes = list(self._fixes)
        proj = LocalProjection(fixes[-1].lon, fixes[-1].lat)
        xs = np.array([proj.to_xy(p.lon, p.lat)[0] for p in fixes])
        ys = np.array([proj.to_xy(p.lon, p.lat)[1] for p in fixes])
        zs = np.array([p.alt for p in fixes])
        dt = step_s if step_s is not None else self._median_step(fixes)
        cx = self._fit_coefficients(xs)
        cy = self._fit_coefficients(ys)
        cz = self._fit_coefficients(zs)
        out: list[PredictedPoint] = []
        hx = deque(xs[-self.f :], maxlen=self.f)
        hy = deque(ys[-self.f :], maxlen=self.f)
        hz = deque(zs[-self.f :], maxlen=self.f)
        t = fixes[-1].t
        for _ in range(k):
            nx = self._step(cx, hx)
            ny = self._step(cy, hy)
            nz = self._step(cz, hz)
            hx.append(nx)
            hy.append(ny)
            hz.append(nz)
            t += dt
            lon, lat = proj.to_lonlat(nx, ny)
            out.append(PredictedPoint(t, lon, lat, nz))
        return out

    @staticmethod
    def _median_step(fixes: list[PositionFix]) -> float:
        gaps = sorted(b.t - a.t for a, b in zip(fixes, fixes[1:]) if b.t > a.t)
        return gaps[len(gaps) // 2] if gaps else 1.0

    @staticmethod
    def _step(coeffs: np.ndarray | None, history: deque) -> float:
        if coeffs is None:
            return history[-1]
        recent = list(history)[::-1][: len(coeffs)]
        value = float(np.dot(coeffs, recent))
        if not math.isfinite(value):
            return history[-1]
        return value


class RMFStarPredictor:
    """RMF*: linear mode with critical-point-triggered pattern matching.

    Mode logic:

    * **linear** — constant-velocity extrapolation from the last two
      observations (robust, zero-lag, ideal for the cruise phase);
    * **pattern** — entered when the recent heading drift or vertical
      rate exceeds thresholds (the same signals that yield ``turn`` and
      ``altitude_change`` critical points); fits the RMF primitive
      library (orders 2..f) plus the linear model and predicts with the
      lowest-residual one; drops back to linear mode once drift subsides.
    """

    name = "rmf_star"
    #: The highest RMF order of the pattern library and the history kept.
    f = 4
    window = 16
    #: Heading drift (degrees) and vertical-rate change (m/s) that enter
    #: pattern mode.
    turn_trigger_deg = 6.0
    vrate_trigger_ms = 2.0

    def __init__(self):
        self._fixes: deque[PositionFix] = deque(maxlen=self.window)
        self.mode = "linear"

    def observe(self, fix: PositionFix) -> None:
        self._fixes.append(fix)
        self.mode = "pattern" if self._nonlinear_phase() else "linear"

    def reset(self) -> None:
        self._fixes.clear()
        self.mode = "linear"

    def ready(self) -> bool:
        return len(self._fixes) >= 2

    def _nonlinear_phase(self) -> bool:
        """Detect drift into a turn or a climb/descent transition."""
        fixes = list(self._fixes)
        if len(fixes) < 3:
            return False
        recent = fixes[-min(len(fixes), 6) :]
        headings = [p.heading for p in recent if p.heading is not None]
        if len(headings) >= 3:
            drift = max(heading_difference(h, headings[0]) for h in headings[1:])
            if drift > self.turn_trigger_deg:
                return True
        vrates = [p.vrate for p in recent if p.vrate is not None]
        if len(vrates) >= 2 and abs(vrates[-1] - vrates[0]) > self.vrate_trigger_ms:
            return True
        return False

    def predict(self, k: int, step_s: float | None = None) -> list[PredictedPoint]:
        if not self.ready():
            raise RuntimeError("not enough history to predict")
        fixes = list(self._fixes)
        dt = step_s if step_s is not None else RMFPredictor._median_step(fixes)
        if self.mode == "linear" or len(fixes) < self.f + 2:
            out = self._linear_predict(fixes, k, dt)
        else:
            out = self._pattern_predict(fixes, k, dt)
        return out

    # -- linear primitive -------------------------------------------------------

    @staticmethod
    def _linear_predict(fixes: list[PositionFix], k: int, dt: float) -> list[PredictedPoint]:
        proj = LocalProjection(fixes[-1].lon, fixes[-1].lat)
        # Velocity from the last up-to-4 samples (noise-averaged).
        tail = fixes[-min(len(fixes), 4) :]
        x0, y0 = proj.to_xy(tail[0].lon, tail[0].lat)
        x1, y1 = proj.to_xy(tail[-1].lon, tail[-1].lat)
        span = max(1e-9, tail[-1].t - tail[0].t)
        vx, vy = (x1 - x0) / span, (y1 - y0) / span
        vz = (tail[-1].alt - tail[0].alt) / span
        out = []
        t = fixes[-1].t
        for i in range(1, k + 1):
            lon, lat = proj.to_lonlat(x1 + vx * i * dt, y1 + vy * i * dt)
            out.append(PredictedPoint(t + i * dt, lon, lat, fixes[-1].alt + vz * i * dt))
        return out

    # -- pattern-matching mode -----------------------------------------------------

    def _pattern_predict(self, fixes: list[PositionFix], k: int, dt: float) -> list[PredictedPoint]:
        """Fit the primitive library; predict with the best in-sample fit."""
        candidates: list[tuple[float, list[PredictedPoint]]] = []
        linear = self._linear_predict(fixes, k, dt)
        candidates.append((self._holdout_residual_linear(fixes), linear))
        for order in range(2, self.f + 1):
            rmf = RMFPredictor(f=order, window=max(2 * order, len(fixes)))
            for fix in fixes:
                rmf.observe(fix)
            if not rmf.ready():
                continue
            residual = self._holdout_residual_rmf(fixes, order)
            try:
                candidates.append((residual, rmf.predict(k, step_s=dt)))
            except (RuntimeError, np.linalg.LinAlgError):
                continue
        candidates.sort(key=lambda c: c[0])
        best = candidates[0][1]
        # Plausibility guard: an unstable recursion can diverge wildly when
        # iterated k steps. If the chosen primitive implies a speed far above
        # anything recently observed, fall back to linear extrapolation.
        recent_speed = max((p.speed or 0.0) for p in fixes[-4:])
        limit = max(3.0 * recent_speed, 50.0) * dt * k
        last = fixes[-1]
        proj = LocalProjection(last.lon, last.lat)
        end_x, end_y = proj.to_xy(best[-1].lon, best[-1].lat)
        if math.hypot(end_x, end_y) > limit:
            return linear
        return best

    @staticmethod
    def _holdout_residual_linear(fixes: list[PositionFix]) -> float:
        """One-step-back residual of constant-velocity extrapolation."""
        if len(fixes) < 3:
            return math.inf
        past, target = fixes[:-1], fixes[-1]
        dt = target.t - past[-1].t
        pred = RMFStarPredictor._linear_predict(past, 1, dt)[0]
        proj = LocalProjection(target.lon, target.lat)
        x, y = proj.to_xy(pred.lon, pred.lat)
        return math.hypot(x, y)

    @staticmethod
    def _holdout_residual_rmf(fixes: list[PositionFix], order: int) -> float:
        """One-step-back residual of an order-``order`` RMF fit."""
        if len(fixes) < 2 * order + 2:
            return math.inf
        past, target = fixes[:-1], fixes[-1]
        rmf = RMFPredictor(f=order, window=len(past))
        for fix in past:
            rmf.observe(fix)
        if not rmf.ready():
            return math.inf
        try:
            pred = rmf.predict(1, step_s=target.t - past[-1].t)[0]
        except (RuntimeError, np.linalg.LinAlgError):
            return math.inf
        proj = LocalProjection(target.lon, target.lat)
        x, y = proj.to_xy(pred.lon, pred.lat)
        return math.hypot(x, y)
