"""Wiring metrics into the Figure-2 stages and the broker.

Two kinds of components carry the numbers the paper reports, and each
gets a dedicated instrumentation entry point:

* **stages** (the integrated real-time layer's cleaning, synopses,
  link-discovery hops) — an :class:`OperatorProbe` each, so they report
  under one ``op.<name>.*`` namespace and the dashboard renders them
  uniformly;
* **the broker** — per-topic size/published/dropped gauges and
  per-consumer-group lag gauges (:func:`instrument_broker`,
  :func:`instrument_consumer`).

Naming conventions (what the dashboard and benches parse):

* ``op.<name>.records_in`` / ``op.<name>.records_out`` /
  ``op.<name>.batches`` — counters
* ``op.<name>.latency_s`` — histogram of per-batch processing seconds
* ``broker.topic.<topic>.{size,published,dropped}`` — topic gauges
* ``broker.lag.<topic>.<group>`` — consumer-group lag gauges
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # import only for typing: streams must not import obs
    from ..streams.broker import Broker, Consumer


class OperatorProbe:
    """The per-stage metric bundle.

    A stage calls :meth:`observe` once per batch it processes, with the
    fan-out count, the wall seconds spent and ``n_in`` set to the batch
    length, so the counters stay exact. ``op.<name>.batches`` counts
    observe calls, and the latency histogram holds per-call seconds.
    """

    __slots__ = ("name", "records_in", "records_out", "batches", "latency")

    def __init__(self, registry: MetricsRegistry, name: str):
        self.name = name
        self.records_in = registry.counter(f"op.{name}.records_in")
        self.records_out = registry.counter(f"op.{name}.records_out")
        self.batches = registry.counter(f"op.{name}.batches")
        self.latency = registry.histogram(f"op.{name}.latency_s")

    def observe(self, n_out: int, seconds: float, n_in: int = 1) -> None:
        self.records_in.inc(n_in)
        if n_out:
            self.records_out.inc(n_out)
        self.batches.inc()
        self.latency.observe(seconds)

    def rate_records_s(self) -> float:
        """Records/s while processing (exact: count over exact latency sum)."""
        if self.latency.sum <= 0.0:
            return 0.0
        return self.records_in.value / self.latency.sum


def instrument_broker(broker: "Broker", registry: MetricsRegistry) -> None:
    """Register live gauges over every topic currently in the broker.

    Safe to call again after new topics appear; existing gauges are
    re-bound to the same sources.
    """
    for topic in broker.topics():
        base = f"broker.topic.{topic.name}"
        registry.gauge(f"{base}.size", fn=topic.size)
        registry.gauge(f"{base}.published", fn=lambda t=topic: t.stats.records_in)
        registry.gauge(f"{base}.dropped", fn=lambda t=topic: t.stats.dropped)


def instrument_consumer(consumer: "Consumer", registry: MetricsRegistry) -> "Consumer":
    """Register a lag gauge for one consumer group on one topic."""
    registry.gauge(f"broker.lag.{consumer.topic.name}.{consumer.group}", fn=consumer.lag)
    return consumer


# -- registry views (what the dashboard renders) ----------------------------------


def operator_rates(registry: MetricsRegistry) -> dict[str, dict[str, float]]:
    """Per-operator throughput/latency summary parsed from the registry.

    Returns ``{operator: {records_in, records_out, records_s, p50_ms,
    p95_ms, p99_ms}}`` for every ``op.<name>.*`` family present.
    """
    out: dict[str, dict[str, float]] = {}
    for metric, value in registry.counters("op.").items():
        name, _, field = metric[len("op."):].rpartition(".")
        if field in ("records_in", "records_out") and name:
            out.setdefault(name, {"records_in": 0, "records_out": 0})[field] = value
    for name, row in out.items():
        hist = registry._histograms.get(f"op.{name}.latency_s")
        if hist is not None and hist.sum > 0.0:
            row["records_s"] = row["records_in"] / hist.sum
            q = hist.quantiles()
            row["p50_ms"] = q["p50"] * 1e3
            row["p95_ms"] = q["p95"] * 1e3
            row["p99_ms"] = q["p99"] * 1e3
        else:
            row["records_s"] = 0.0
            row["p50_ms"] = row["p95_ms"] = row["p99_ms"] = 0.0
    return dict(sorted(out.items()))


def consumer_lags(registry: MetricsRegistry) -> dict[str, int]:
    """``{"<topic>.<group>": lag}`` for every registered consumer gauge."""
    prefix = "broker.lag."
    return {name[len(prefix):]: int(v) for name, v in registry.gauges(prefix).items()}
