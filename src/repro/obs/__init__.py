"""Observability (S-obs): metrics and tracing for the whole pipeline.

The paper judges every datAcron component by throughput and latency
numbers (Sections 4-5); this package is where the reproduction measures
them. One :class:`MetricsRegistry` per system instance holds counters,
gauges and log-bucket histograms that merge exactly across shards
(:mod:`repro.obs.harvest`); the Figure-2 stages and the broker are wired
in through :mod:`repro.obs.instrument`; and a :class:`Tracer` follows
sampled records end to end through the Figure-2 real-time layer.
"""

from .events import EventLog, JsonlSink, ObsEvent, SEVERITIES, watch_broker
from .export import (
    MetricsServer,
    parse_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
)
from .harvest import (
    DEFAULT_GAUGE_RULES,
    HistogramSnapshot,
    MetricsSnapshot,
    ObsHarvest,
    fold_harvests,
    harvest_obs,
    snapshot_registry,
)
from .health import DEGRADED, FAILING, OK, HealthMonitor, HealthRule, default_realtime_rules
from .instrument import (
    OperatorProbe,
    consumer_lags,
    instrument_broker,
    instrument_consumer,
    operator_rates,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, format_snapshot
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_GAUGE_RULES",
    "DEGRADED",
    "EventLog",
    "FAILING",
    "Gauge",
    "HealthMonitor",
    "HealthRule",
    "Histogram",
    "HistogramSnapshot",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsServer",
    "MetricsSnapshot",
    "OK",
    "ObsEvent",
    "ObsHarvest",
    "OperatorProbe",
    "SEVERITIES",
    "Span",
    "Tracer",
    "consumer_lags",
    "default_realtime_rules",
    "fold_harvests",
    "format_snapshot",
    "harvest_obs",
    "snapshot_registry",
    "instrument_broker",
    "instrument_consumer",
    "operator_rates",
    "parse_openmetrics",
    "render_openmetrics",
    "sanitize_metric_name",
    "watch_broker",
]
