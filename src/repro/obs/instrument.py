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

:func:`operator_rates` reads the probes back as one attribution table:
each traced call's wall split over its regions, as the call's owner
declares them in ``MetricsRegistry.roots``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

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


def operator_rates(registry: MetricsRegistry) -> dict[str, dict[str, Any]]:
    """The attribution table: where each traced call's time went.

    An ``op.<name>.*`` family is a row: ``records_in``/``records_out``,
    ``records_s``, ``p50_ms``/``p95_ms``/``p99_ms`` and ``seconds`` (its
    latency sum). A root of ``registry.roots`` is ``{"seconds": its wall,
    "regions": {region: row with its "share" of the wall, "unattributed":
    the rest}}``. Under a ``shards`` region (a sharded parent) sit, as that
    row's ``regions``, the replicas' folded families, which no root claims,
    and the root carries ``serial_share``: 1 - (shards - IPC encode and
    decode) / wall. Elsewhere an unclaimed family is a row of the table.
    """
    rows: dict[str, dict[str, Any]] = {}
    for metric, value in registry.counters("op.").items():
        name, _, field = metric[len("op."):].rpartition(".")
        if field in ("records_in", "records_out") and name:
            rows.setdefault(name, {"records_in": 0, "records_out": 0})[field] = value
    for name, row in rows.items():
        hist = registry._histograms.get(f"op.{name}.latency_s")
        row["seconds"] = seconds = hist.sum if hist is not None else 0.0
        q = hist.quantiles() if seconds > 0.0 else {}
        row["records_s"] = row["records_in"] / seconds if seconds > 0.0 else 0.0
        row.update({f"{p}_ms": q.get(p, 0.0) * 1e3 for p in ("p50", "p95", "p99")})
    table: dict[str, dict[str, Any]] = {
        root: {"seconds": registry.gauge(wall).value(), "regions": {name: rows.pop(name) for name in regions}}
        for root, (wall, regions) in registry.roots.items()
    }
    for root in table.values():
        wall, regions = root["seconds"], root["regions"]
        regions["unattributed"] = {"seconds": wall - sum(row["seconds"] for row in regions.values())}
        for row in regions.values():
            row["share"] = row["seconds"] / wall if wall else 0.0
        if "shards" in regions:
            regions["shards"]["regions"], rows = rows, {}
            codec = (".ipc_encode_s", ".ipc_decode_s")
            ipc = sum(hist.sum for name, hist in registry._histograms.items() if name.endswith(codec))
            root["serial_share"] = 1.0 - (regions["shards"]["seconds"] - ipc) / wall if wall else 0.0
    return {**table, **rows}


def consumer_lags(registry: MetricsRegistry) -> dict[str, int]:
    """``{"<topic>.<group>": lag}`` for every registered consumer gauge."""
    prefix = "broker.lag."
    return {name[len(prefix):]: int(v) for name, v in registry.gauges(prefix).items()}
