"""Exporting metrics: OpenMetrics text and a scrape endpoint.

The registry's numbers are only useful operationally if standard
tooling can read them. This module renders any
:class:`~repro.obs.metrics.MetricsRegistry` (or a plain snapshot dict)
as OpenMetrics/Prometheus text exposition — counters as ``_total``
samples, gauges as gauges, log-bucket histograms as summaries with
``quantile`` labels — and serves it live, beside the health snapshot as
JSON, over a stdlib ``http.server`` endpoint (``/metrics`` + ``/healthz``) so
``curl`` or a Prometheus scraper can watch a run without any dependency.

A matching line-format parser (:func:`parse_openmetrics`) round-trips
the exposition; tests use it so the format stays honest.
"""

from __future__ import annotations

import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from .metrics import MetricsRegistry

if TYPE_CHECKING:
    from .health import HealthMonitor

#: The content type OpenMetrics scrapers negotiate.
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles exposed per histogram, matching ``Histogram.quantiles``.
_QUANTILES = (0.5, 0.95, 0.99)

#: Registry names of the form ``shard.<i>.<rest>`` (harvested per-shard
#: families) render as ONE OpenMetrics family per ``<rest>`` with a
#: ``shard="<i>"`` label, instead of one family per shard.
_SHARD_FAMILY = re.compile(r"shard\.(\d+)\.(.+)$")


def _family_rows(table: dict[str, Any]) -> list[tuple[str, int | None, Any]]:
    """Group one snapshot section into ``(family, shard, value)`` rows.

    Non-shard names keep ``shard=None``. Rows are ordered by family then
    numeric shard index, so every family's samples are contiguous (one
    TYPE line heads them all).
    """
    rows: list[tuple[str, int | None, Any]] = []
    for name, value in table.items():
        m = _SHARD_FAMILY.match(name)
        if m is not None:
            rows.append((f"shard.{m.group(2)}", int(m.group(1)), value))
        else:
            rows.append((name, None, value))
    rows.sort(key=lambda r: (r[0], -1 if r[1] is None else r[1]))
    return rows


def _labels(shard: int | None, quantile: float | None = None) -> str:
    parts = []
    if shard is not None:
        parts.append(f'shard="{shard}"')
    if quantile is not None:
        parts.append(f'quantile="{_fmt(quantile)}"')
    return "{" + ",".join(parts) + "}" if parts else ""


def sanitize_metric_name(name: str) -> str:
    """Registry name -> legal OpenMetrics name (dots become underscores)."""
    out = _SANITIZE.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """A float as OpenMetrics renders it (NaN spelled out, ints bare)."""
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def render_openmetrics(registry_or_snapshot: MetricsRegistry | dict[str, Any]) -> str:
    """The full registry as OpenMetrics text exposition (ends with ``# EOF``).

    Accepts a live registry or a :meth:`MetricsRegistry.snapshot` dict,
    so archived snapshots render identically to live state.

    Harvested per-shard families (``shard.<i>.<rest>`` registry names,
    see :mod:`repro.obs.harvest`) render as one shard-labeled family —
    ``shard_op_clean_records_in_total{shard="0"}`` — so a merged
    registry's export reads like a normal multi-target scrape.
    """
    snap = (
        registry_or_snapshot.snapshot()
        if isinstance(registry_or_snapshot, MetricsRegistry)
        else registry_or_snapshot
    )
    lines: list[str] = []
    seen: set[str] = set()
    for family, shard, value in _family_rows(snap.get("counters", {})):
        om = sanitize_metric_name(family)
        if om not in seen:
            seen.add(om)
            lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total{_labels(shard)} {_fmt(value)}")
    seen = set()
    for family, shard, value in _family_rows(snap.get("gauges", {})):
        om = sanitize_metric_name(family)
        if om not in seen:
            seen.add(om)
            lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om}{_labels(shard)} {_fmt(value)}")
    seen = set()
    for family, shard, hist in _family_rows(snap.get("histograms", {})):
        om = sanitize_metric_name(family)
        if om not in seen:
            seen.add(om)
            lines.append(f"# TYPE {om} summary")
        for q in _QUANTILES:
            value = hist.get(f"p{int(q * 100)}", math.nan)
            lines.append(f"{om}{_labels(shard, q)} {_fmt(value)}")
        lines.append(f"{om}_count{_labels(shard)} {_fmt(hist.get('count', 0))}")
        lines.append(f"{om}_sum{_labels(shard)} {_fmt(hist.get('sum', 0.0))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> dict[str, dict[str, Any]]:
    """Parse OpenMetrics text into ``{family: {type, samples}}``.

    ``samples`` maps the sample key — the sample name plus a sorted
    label rendering, e.g. ``op_clean_latency_s{quantile="0.5"}`` — to
    its float value. Raises ``ValueError`` on malformed lines, so the
    round-trip test genuinely validates the exposition format.
    """
    families: dict[str, dict[str, Any]] = {}
    saw_eof = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            try:
                _, _, name, mtype = line.split(None, 3)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}") from None
            families[name] = {"type": mtype, "samples": {}}
            continue
        if line.startswith("#"):  # HELP/UNIT lines: tolerated, ignored
            continue
        m = re.match(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$", line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name, labels, value_text = m.group(1), m.group(2) or "", m.group(3)
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {value_text!r}") from None
        candidates = [
            f for f in families if sample_name == f or sample_name.startswith(f + "_")
        ]
        # Longest family wins: `a_b_total` belongs to family `a_b`, not `a`.
        family = max(candidates, key=len) if candidates else None
        if family is None:
            raise ValueError(f"line {lineno}: sample {sample_name!r} without a TYPE line")
        families[family]["samples"][sample_name + labels] = value
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


# -- the scrape endpoint -----------------------------------------------------------


class MetricsServer:
    """A stdlib HTTP endpoint serving ``/metrics`` and ``/healthz``.

    ``/metrics`` renders the live registry as OpenMetrics text;
    ``/healthz`` returns the health monitor's snapshot as JSON with
    status 200 while the system is OK or DEGRADED and 503 once FAILING
    (load balancers treat DEGRADED as "still serving"). Without a
    monitor, ``/healthz`` reports ``{"system": "OK"}``.

    The constructor binds the port (``port=0``: an ephemeral one, read
    :attr:`port`); :meth:`start` serves on a daemon thread; :meth:`stop`
    shuts it down and releases the port, whether or not it was started.
    Usable as a context manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        health: "HealthMonitor | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.health = health
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if self.path.split("?", 1)[0] == "/metrics":
                    body = render_openmetrics(outer.registry).encode("utf-8")
                    self._reply(200, OPENMETRICS_CONTENT_TYPE, body)
                elif self.path.split("?", 1)[0] == "/healthz":
                    if outer.health is not None:
                        outer.health.evaluate()
                        snap = outer.health.snapshot()
                    else:
                        snap = {"system": "OK", "components": {}}
                    status = 503 if snap["system"] == "FAILING" else 200
                    body = (json.dumps(snap, sort_keys=True) + "\n").encode("utf-8")
                    self._reply(status, "application/json; charset=utf-8", body)
                else:
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")

            def _reply(self, status: int, content_type: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # quiet: scrapes are frequent
                pass

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        # shutdown() waits for a serve_forever loop, so only a started
        # server may call it; a second stop() finds nothing to do.
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
