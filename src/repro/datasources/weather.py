"""Synthetic weather and sea-state sources.

Stands in for the paper's weather feeds (Table 1): gridded sea-state
forecasts (1 file / 3 hours) and station observations (1 obs/hour from
16 stations). The continuous field is a deterministic sum of travelling
sinusoids — spatially and temporally autocorrelated like a real
synoptic field, cheap to evaluate anywhere, and fully reproducible
from the seed. Enrichment (link discovery, predictors) only ever reads
scalar covariates at (lon, lat, t), which this provides.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..geo import BBox

from .regions import DEFAULT_BBOX


@dataclass(frozen=True, slots=True)
class WeatherSample:
    """The weather covariates at one point in space-time."""

    wind_u_ms: float   # eastward wind component
    wind_v_ms: float   # northward wind component
    visibility_km: float
    wave_height_m: float
    temperature_c: float


class WeatherField:
    """A smooth, deterministic synthetic weather field.

    Each variable is a sum of six travelling plane waves with
    random (seeded) wavevectors, phases and periods. Typical horizontal
    correlation length is a few degrees and temporal correlation a few
    hours — the scales that matter for trajectory enrichment.
    """

    #: The wind components' amplitude, m/s.
    wind_scale_ms = 9.0

    def __init__(self, bbox: BBox = DEFAULT_BBOX, seed: int = 99):
        self.bbox = bbox
        self.seed = seed
        rng = random.Random(seed)
        self._modes: dict[str, list[tuple[float, float, float, float, float]]] = {}
        for var in ("wind_u", "wind_v", "visibility", "wave", "temp"):
            modes = []
            for _ in range(6):
                kx = rng.uniform(0.2, 1.6)       # cycles per ~6 degrees
                ky = rng.uniform(0.2, 1.6)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                period_s = rng.uniform(3.0, 18.0) * 3600.0
                amp = rng.uniform(0.4, 1.0)
                modes.append((kx, ky, phase, period_s, amp))
            self._modes[var] = modes

    def _field(self, var: str, lon, lat, t, sin=math.sin):
        """Raw field value in [-1, 1]-ish units: on floats with ``math.sin``,
        elementwise on float64 arrays with ``np.sin``, in the same
        operation order either way."""
        total, norm = 0.0, 0.0
        for kx, ky, phase, period_s, amp in self._modes[var]:
            total += amp * sin(kx * lon + ky * lat + 2.0 * math.pi * t / period_s + phase)
            norm += amp
        return total / norm if norm else 0.0

    def sample(self, lon: float, lat: float, t: float) -> WeatherSample:
        """Weather covariates at (lon, lat, t)."""
        u = self._field("wind_u", lon, lat, t) * self.wind_scale_ms
        v = self._field("wind_v", lon, lat, t) * self.wind_scale_ms
        vis = 20.0 + self._field("visibility", lon, lat, t) * 15.0   # 5..35 km
        wave = max(0.0, 1.8 + self._field("wave", lon, lat, t) * 1.8)
        temp = 16.0 + self._field("temp", lon, lat, t) * 10.0
        return WeatherSample(u, v, max(0.2, vis), wave, temp)

    def wind_wave_batch(self, lons: np.ndarray, lats: np.ndarray, ts: np.ndarray) -> tuple[list[float], ...]:
        """``sample()``'s ``wind_u_ms``, ``wind_v_ms`` and ``wave_height_m``
        at every (lon, lat, t) of three float64 arrays, as float lists —
        equal to the per-point values wherever ``np.sin`` is ``math.sin``."""
        u = self._field("wind_u", lons, lats, ts, np.sin) * self.wind_scale_ms
        v = self._field("wind_v", lons, lats, ts, np.sin) * self.wind_scale_ms
        wave = 1.8 + self._field("wave", lons, lats, ts, np.sin) * 1.8
        return u.tolist(), v.tolist(), np.where(wave > 0.0, wave, 0.0).tolist()

    def wind_at(self, lon: float, lat: float, t: float) -> tuple[float, float]:
        """Just the wind vector (u, v) in m/s."""
        s = self.sample(lon, lat, t)
        return s.wind_u_ms, s.wind_v_ms


@dataclass(frozen=True, slots=True)
class StationObservation:
    """A METAR-like station weather observation."""

    station_id: str
    t: float
    lon: float
    lat: float
    sample: WeatherSample


class WeatherStationNetwork:
    """A fixed set of observing stations reporting hourly (Table 1 row).

    The paper's weather-observation source is 71,516 observations from
    16 stations at one observation per hour.
    """

    def __init__(self, field: WeatherField):
        rng = random.Random(5)
        self.field = field
        self.stations: list[tuple[str, float, float]] = [
            (
                f"station-{i:02d}",
                rng.uniform(field.bbox.min_lon, field.bbox.max_lon),
                rng.uniform(field.bbox.min_lat, field.bbox.max_lat),
            )
            for i in range(16)
        ]

    def observations(self, t_start: float, t_end: float) -> Iterator[StationObservation]:
        """Yield one observation per station per hour over [t_start, t_end)."""
        t = t_start
        while t < t_end:
            for sid, lon, lat in self.stations:
                yield StationObservation(sid, t, lon, lat, self.field.sample(lon, lat, t))
            t += 3600.0


@dataclass(frozen=True, slots=True)
class SeaStateForecast:
    """One gridded sea-state forecast 'file' (a batch of grid samples)."""

    issued_t: float
    grid_lon: list[float]
    grid_lat: list[float]
    wave_height_m: list[list[float]]

    def cell_count(self) -> int:
        return len(self.grid_lon) * len(self.grid_lat)


class SeaStateSource:
    """Gridded sea-state forecasts at one file per ``period_s`` (Table 1: 3 h)."""

    period_s = 3.0 * 3600.0

    def __init__(self, field: WeatherField, resolution_deg: float = 0.5):
        if resolution_deg <= 0:
            raise ValueError("resolution must be positive")
        self.field = field
        self.resolution_deg = resolution_deg

    def forecast_at(self, t: float) -> SeaStateForecast:
        """Build the full-grid forecast issued at time ``t``."""
        box = self.field.bbox
        lons = _frange(box.min_lon, box.max_lon, self.resolution_deg)
        lats = _frange(box.min_lat, box.max_lat, self.resolution_deg)
        wave = [[self.field.sample(lon, lat, t).wave_height_m for lon in lons] for lat in lats]
        return SeaStateForecast(issued_t=t, grid_lon=lons, grid_lat=lats, wave_height_m=wave)

    def forecasts(self, t_start: float, t_end: float) -> Iterator[SeaStateForecast]:
        """All forecast files issued in [t_start, t_end)."""
        t = t_start
        while t < t_end:
            yield self.forecast_at(t)
            t += self.period_s


def _frange(start: float, stop: float, step: float) -> list[float]:
    out = []
    x = start
    while x <= stop + 1e-9:
        out.append(round(x, 9))
        x += step
    return out
