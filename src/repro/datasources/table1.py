"""Table 1 of the paper: the data-source inventory, paper vs. measured.

The paper's Table 1 lists every surveillance, weather and contextual
source with its volume and velocity. This module captures the paper's
reported figures as a machine-readable spec and provides measurement
harnesses that run each synthetic surrogate for a simulated window and
report the same quantities (messages/min, bytes/min, entity counts), so
the Table-1 bench can print a paper-vs-measured table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .aviation import FlightDatasetConfig, generate_flight_dataset
from .maritime import AISConfig, AISSimulator
from .ports import generate_ports
from .regions import generate_regions
from .registry import generate_vessel_registry
from .weather import SeaStateSource, WeatherField, WeatherStationNetwork


@dataclass(frozen=True, slots=True)
class SourceSpec:
    """One row of Table 1 as reported by the paper."""

    source_id: str
    source_type: str       # surveillance | weather | contextual | other
    domain: str            # maritime | aviation | both
    fmt: str
    paper_volume: str
    paper_velocity: str


#: The paper's Table 1, row by row.
TABLE1_SPECS: tuple[SourceSpec, ...] = (
    SourceSpec("ais_archive_small", "surveillance", "maritime", "flat files",
               "19,680,743 messages (1.05 GB)", "~76 messages/min"),
    SourceSpec("ais_archive_large", "surveillance", "maritime", "flat files",
               "81,722,110 messages (8.11 GB)", "~1,830 messages/min"),
    SourceSpec("ais_stream", "surveillance", "maritime", "JSON stream",
               "~400 KB/min", "~3,700 messages/min"),
    SourceSpec("flightaware", "surveillance", "aviation", "JSON stream",
               "13 GB/day", "1.2 Mb/s"),
    SourceSpec("ifs_radar", "surveillance", "aviation", "CSV files",
               "12 GB/day (Spanish airspace)", "1.1 Mb/s"),
    SourceSpec("sea_state", "weather", "both", "flat files",
               "79,652,684 forecasts (3.02 GB)", "1,463 forecast files; 1 file / 3 h"),
    SourceSpec("weather_obs", "weather", "both", "flat files",
               "71,516 observations (5 MB)", "1 obs/hour from 16 stations"),
    SourceSpec("geographical", "contextual", "both", "ESRI shapefiles",
               "22 different features (1.4 GB)", "static"),
    SourceSpec("port_registers", "contextual", "maritime", "ESRI shapefiles",
               "5,754 different ports (70 MB)", "static"),
    SourceSpec("vessel_registers", "contextual", "maritime", "flat files",
               "166,683 distinct ships", "static"),
    SourceSpec("ectl_nm_b2b_daily", "contextual", "aviation", "CSV files", "1.7 GB/day", "static"),
    SourceSpec("ectl_nm_b2b_cycle", "contextual", "aviation", "flat files", "30 MB/cycle", "static"),
    SourceSpec("ectl_other", "other", "aviation", "CSV files", "30 MB/month", "static"),
)

SPEC_BY_ID = {s.source_id: s for s in TABLE1_SPECS}


@dataclass(frozen=True, slots=True)
class SourceMeasurement:
    """Measured statistics of a synthetic source over a simulated window."""

    source_id: str
    messages: int
    simulated_minutes: float
    bytes_total: int

    @property
    def messages_per_min(self) -> float:
        return self.messages / self.simulated_minutes if self.simulated_minutes else 0.0

    @property
    def bytes_per_min(self) -> float:
        return self.bytes_total / self.simulated_minutes if self.simulated_minutes else 0.0


def _ais_message_json(fix) -> str:
    """Render one fix in the AIS-stream JSON wire format (for byte counts)."""
    return json.dumps(
        {
            "mmsi": fix.entity_id,
            "t": round(fix.t, 1),
            "lon": round(fix.lon, 6),
            "lat": round(fix.lat, 6),
            "sog": round((fix.speed or 0.0) * 3600.0 / 1852.0, 1),
            "cog": round(fix.heading or 0.0, 1),
        },
        separators=(",", ":"),
    )


def measure_ais(n_vessels: int, minutes: float = 10.0, report_period_s: float = 10.0) -> SourceMeasurement:
    """Run the AIS simulator and measure its stream rate."""
    sim = AISSimulator(n_vessels=n_vessels, seed=1, config=AISConfig(report_period_s=report_period_s))
    n, total_bytes = 0, 0
    for fix in sim.fixes(0.0, minutes * 60.0):
        n += 1
        total_bytes += len(_ais_message_json(fix)) + 1
    return SourceMeasurement("ais", n, minutes, total_bytes)


def measure_weather_obs(hours: float = 24.0) -> SourceMeasurement:
    """Run the station network and measure its observation rate."""
    network = WeatherStationNetwork(WeatherField(seed=5))
    n, total_bytes = 0, 0
    for _obs in network.observations(0.0, hours * 3600.0):
        n += 1
        total_bytes += 72  # fixed-width synoptic record
    return SourceMeasurement("weather_obs", n, hours * 60.0, total_bytes)


def measure_sea_state(hours: float = 24.0) -> SourceMeasurement:
    """Run the sea-state source and measure forecast files and grid samples."""
    source = SeaStateSource(WeatherField(seed=9), resolution_deg=1.0)
    files, samples = 0, 0
    for fc in source.forecasts(0.0, hours * 3600.0):
        files += 1
        samples += fc.cell_count()
    return SourceMeasurement("sea_state", files, hours * 60.0, samples * 16)


def measure_contextual() -> dict[str, int]:
    """Instantiate the static contextual sources and count their entities."""
    return {
        "regions": len(generate_regions(500, seed=3)),
        "ports": len(generate_ports(500, seed=4)),
        "vessels": len(generate_vessel_registry(2000, seed=5)),
    }


def measure_adsb(n_flights: int = 10) -> SourceMeasurement:
    """Generate a batch of flights and measure the ADS-B message rate."""
    flights = generate_flight_dataset(FlightDatasetConfig(n_flights=n_flights, departure_spread_s=0.0), seed=7)
    n, total_bytes, span_s = 0, 0, 0.0
    for fl in flights:
        n += len(fl.trajectory)
        total_bytes += len(fl.trajectory) * 96  # typical ADS-B JSON message size
        span_s = max(span_s, fl.trajectory.duration())
    return SourceMeasurement("flightaware", n, span_s / 60.0 if span_s else 1.0, total_bytes)


#: Measurement runners keyed by paper source id (where a surrogate exists).
MEASUREMENT_RUNNERS: dict[str, Callable[[], SourceMeasurement]] = {
    "ais_archive_small": lambda: measure_ais(n_vessels=13, minutes=10.0, report_period_s=10.0),
    "ais_archive_large": lambda: measure_ais(n_vessels=305, minutes=3.0, report_period_s=10.0),
    "ais_stream": lambda: measure_ais(n_vessels=617, minutes=2.0, report_period_s=10.0),
    "weather_obs": lambda: measure_weather_obs(hours=12.0),
    "sea_state": lambda: measure_sea_state(hours=24.0),
    "flightaware": lambda: measure_adsb(n_flights=8),
}
