"""Wiring metrics into the streaming substrate.

Three kinds of components carry the numbers the paper reports, and each
gets a dedicated instrumentation entry point:

* **operators** — per-operator records/s, per-record processing
  latency, and buffered queue depth (:func:`instrument_operator`);
* **the broker** — per-topic size/published/dropped gauges and
  per-consumer-group lag gauges (:func:`instrument_broker`,
  :func:`instrument_consumer`);
* **non-operator stages** (the integrated real-time layer's cleaning,
  synopses, link-discovery hops) — :class:`OperatorProbe` used
  directly, so they report under the same ``op.<name>.*`` namespace
  and the dashboard renders them uniformly.

Naming conventions (what the dashboard and benches parse):

* ``op.<name>.records_in`` / ``op.<name>.records_out`` — counters
* ``op.<name>.latency_s`` — histogram of per-record processing seconds
* ``op.<name>.queue_depth`` — gauge over buffered elements
* ``op.<name>.watermark_lag_s`` / ``op.<name>.late_records`` — window
  gauges (registered when the operator exposes them)
* ``broker.topic.<topic>.{size,published,dropped}`` — topic gauges
* ``broker.lag.<topic>.<group>`` — consumer-group lag gauges
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # import only for typing: streams must not import obs
    from ..streams.broker import Broker, Consumer
    from ..streams.operators import Operator


class OperatorProbe:
    """The per-operator metric bundle, attached to ``Operator.probe``.

    ``Operator.process`` calls :meth:`observe` once per record with the
    fan-out count and the wall seconds spent in ``on_record``; a stage
    that works on several records at once calls it once per batch with
    ``n_in`` set to the batch length, so the counters stay exact either
    way. ``op.<name>.batches`` counts observe calls — per-record
    processing has ``batches == records_in`` — and the latency histogram
    holds per-call (i.e. per record or per batch) seconds.
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


def instrument_operator(op: "Operator", registry: MetricsRegistry, name: str | None = None) -> "Operator":
    """Attach an :class:`OperatorProbe` and a queue-depth gauge to an operator.

    Window operators (anything exposing ``watermark_lag_s``) also get an
    ``op.<name>.watermark_lag_s`` gauge and an ``op.<name>.late_records``
    gauge — the signals the health monitor's default rules watch.
    """
    label = name or op.name
    op.probe = OperatorProbe(registry, label)
    registry.gauge(f"op.{label}.queue_depth", fn=op.pending)
    if hasattr(op, "watermark_lag_s"):
        registry.gauge(f"op.{label}.watermark_lag_s", fn=op.watermark_lag_s)
    if hasattr(op, "late_records"):
        registry.gauge(f"op.{label}.late_records", fn=lambda o=op: o.late_records)
    return op


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
