"""Synthetic data sources (S3): surrogates of the paper's Table-1 feeds.

Deterministic, seeded generators for AIS fleets, ADS-B flights with
flight plans, weather/sea-state fields, regions, ports and registries.
"""

from .aviation import (
    AIRPORTS,
    Airport,
    FlightConfig,
    FlightDatasetConfig,
    FlightPlan,
    FlightSimulator,
    SimulatedFlight,
    Waypoint,
    generate_flight_dataset,
    make_route,
)
from .maritime import AISConfig, AISSimulator, fishing_vessel_stream
from .ports import Port, generate_ports
from .regions import DEFAULT_BBOX, Region, generate_regions
from .registry import (
    AircraftRecord,
    VesselRecord,
    generate_aircraft_registry,
    generate_vessel_registry,
)
from .table1 import (
    MEASUREMENT_RUNNERS,
    SPEC_BY_ID,
    TABLE1_SPECS,
    SourceMeasurement,
    SourceSpec,
    measure_adsb,
    measure_ais,
    measure_contextual,
    measure_sea_state,
    measure_weather_obs,
)
from .weather import (
    SeaStateForecast,
    SeaStateSource,
    StationObservation,
    WeatherField,
    WeatherSample,
    WeatherStationNetwork,
)

__all__ = [
    "AIRPORTS",
    "AISConfig",
    "AISSimulator",
    "AircraftRecord",
    "Airport",
    "DEFAULT_BBOX",
    "FlightConfig",
    "FlightDatasetConfig",
    "FlightPlan",
    "FlightSimulator",
    "MEASUREMENT_RUNNERS",
    "Port",
    "Region",
    "SPEC_BY_ID",
    "SeaStateForecast",
    "SeaStateSource",
    "SimulatedFlight",
    "SourceMeasurement",
    "SourceSpec",
    "StationObservation",
    "TABLE1_SPECS",
    "VesselRecord",
    "Waypoint",
    "WeatherField",
    "WeatherSample",
    "WeatherStationNetwork",
    "fishing_vessel_stream",
    "generate_aircraft_registry",
    "generate_flight_dataset",
    "generate_ports",
    "generate_regions",
    "generate_vessel_registry",
    "make_route",
    "measure_adsb",
    "measure_ais",
    "measure_contextual",
    "measure_sea_state",
    "measure_weather_obs",
]
