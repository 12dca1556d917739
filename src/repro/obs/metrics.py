"""Metrics primitives: counters, gauges and streaming histograms.

The paper evaluates every datAcron component by throughput and latency
(entities/s in link discovery, records/s in the synopses generator,
frame latency in the VA layer). This module is the single place those
numbers come from in the reproduction: a :class:`MetricsRegistry` holds
named counters, gauges and log-bucket histograms, and every
instrumented component (the Figure-2 stages, the broker, the KG store,
CEP and the predictors) writes into one.

Histograms count observations in fixed logarithmic buckets with
relative accuracy (DDSketch, Masson et al., VLDB 2019): every quantile —
the p50/p95/p99 latencies the paper quotes — is within
:data:`RELATIVE_ACCURACY` of the true nearest-rank value, memory grows
with the logarithm of the value range, not with stream length, and two
histograms merge exactly by adding bucket counts. There is no sampling,
so snapshots are reproducible run to run by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from .harvest import HistogramSnapshot

#: The relative error bound α of every histogram quantile (outside the
#: zero bucket). One layout for every histogram, so any two merge.
RELATIVE_ACCURACY = 0.01
_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)
#: Magnitudes below one nanosecond share the zero bucket (key 0).
ZERO_BELOW = 1e-9
#: Shifts bucket indices so every magnitude >= ZERO_BELOW gets a key >= 1.
_OFFSET = 1 - math.ceil(math.log(ZERO_BELOW) / _LOG_GAMMA)


def _bucket_value(key: int) -> float:
    """The representative value of a bucket: within α of all it holds.

    Bucket ``i`` holds magnitudes in ``(γ^(i-1), γ^i]``;
    ``(1+α)·γ^(i-1) = (1-α)·γ^i`` is at relative distance α from both
    ends. ``γ^(i-1)`` is below the bucket's values, so unlike ``γ^i`` the
    power cannot raise ``OverflowError`` near the largest float.
    """
    if key == 0:
        return 0.0
    rep = (1.0 + RELATIVE_ACCURACY) * _GAMMA ** (abs(key) - _OFFSET - 1)
    return rep if key > 0 else -rep


@dataclass(slots=True)
class Counter:
    """A monotonically increasing count (records seen, links emitted, ...)."""

    name: str
    value: int = 0

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        self.value += by


class Gauge:
    """A point-in-time level: queue depth, consumer lag, wall seconds.

    Either set explicitly with :meth:`set`, or back it with a callback so
    that reading the gauge always reflects live state (how lag gauges
    track a consumer without the consumer pushing updates).
    """

    def __init__(self, name: str, fn: Callable[[], float] | None = None):
        self.name = name
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed; cannot set")
        self._value = value

    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """A streaming distribution summary in fixed log buckets.

    Tracks exact count/sum/min/max and ``buckets``, a ``{bucket key:
    count}`` map of every observation, from which quantiles are read.
    The key of ``v`` is ``±(ceil(log|v| / log γ) + offset)``, signed like
    ``v``, or 0 in the zero bucket. Keys sort in value order — negatives
    (larger magnitude first), the zero bucket, then positives — so a walk
    over sorted keys is a walk over the sorted observations.
    """

    def __init__(self, name: str):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value >= ZERO_BELOW:
            key = math.ceil(math.log(value) / _LOG_GAMMA) + _OFFSET
        elif value <= -ZERO_BELOW:
            key = -math.ceil(math.log(-value) / _LOG_GAMMA) - _OFFSET
        else:
            key = 0
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def absorb(self, snap: "HistogramSnapshot") -> None:
        """Add another histogram's summary (or a delta of one) into this one.

        Counts, sums and bucket counts add; min/max take the extremes. All
        but the float sum are exact, so folding per-run deltas gives the
        same histogram as one harvest of the whole run.
        """
        if snap.count < 0:
            raise ValueError("cannot absorb a negative observation count")
        self.count += snap.count
        self.sum += snap.sum
        if snap.min < self.min:
            self.min = snap.min
        if snap.max > self.max:
            self.max = snap.max
        for key, n in snap.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, ``min(n-1, int(q*n))``, over the buckets.

        Returns the rank's bucket value clamped into [min, max]: within
        :data:`RELATIVE_ACCURACY` of the true value outside the zero
        bucket, and exact at the lowest and highest rank. An empty
        histogram has no quantiles: returns ``nan``, which is
        distinguishable from a true zero-latency observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return math.nan
        rank = min(self.count - 1, int(q * self.count))
        if rank == 0:
            return self.min
        if rank == self.count - 1:
            return self.max
        seen = 0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen > rank:
                break
        return min(self.max, max(self.min, _bucket_value(key)))

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        return {f"p{int(q * 100)}": self.quantile(q) for q in qs}

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            **self.quantiles(),
        }


class MetricsRegistry:
    """The named home of every metric in one system instance.

    Get-or-create accessors keep call sites one-liners::

        registry.counter("stage.clean.records").inc()
        registry.histogram("op.synopses.latency_s").observe(seconds)
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- accessors ---------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            if g._fn is None:
                # A set-based gauge must not silently become callback-backed:
                # the callback would shadow every value set() ever wrote.
                raise ValueError(
                    f"gauge {name!r} is set-based; re-registering it with a "
                    "callback would silently discard its value"
                )
            g._fn = fn  # re-binding a callback gauge replaces its source
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- introspection -----------------------------------------------------------

    def counters(self, prefix: str = "") -> dict[str, int]:
        return {n: c.value for n, c in sorted(self._counters.items()) if n.startswith(prefix)}

    def gauges(self, prefix: str = "") -> dict[str, float]:
        return {n: g.value() for n, g in sorted(self._gauges.items()) if n.startswith(prefix)}

    def snapshot(self) -> dict[str, Any]:
        """The full registry as plain data (JSON-serializable)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {n: h.snapshot() for n, h in sorted(self._histograms.items())},
        }


def _num(value: float, spec: str) -> str:
    """Format a number, rendering NaN (empty histogram) as ``-``."""
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return format(value, spec)


def format_snapshot(snapshot: dict[str, Any], title: str = "metrics snapshot") -> str:
    """Render a registry snapshot as an aligned text block (for benches)."""
    lines = [f"== {title} =="]
    counters = snapshot.get("counters", {})
    if counters:
        width = max(len(n) for n in counters)
        lines.append("counters:")
        lines.extend(f"  {n:<{width}}  {v:>12,}" for n, v in counters.items())
    gauges = snapshot.get("gauges", {})
    if gauges:
        width = max(len(n) for n in gauges)
        lines.append("gauges:")
        lines.extend(f"  {n:<{width}}  {_num(v, ',.3f'):>12}" for n, v in gauges.items())
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms (seconds unless named otherwise):")
        for name, h in histograms.items():
            lines.append(
                f"  {name}: n={h['count']:,} mean={_num(h['mean'], '.6f')} "
                f"p50={_num(h['p50'], '.6f')} p95={_num(h['p95'], '.6f')} "
                f"p99={_num(h['p99'], '.6f')} max={_num(h['max'], '.6f')}"
            )
    return "\n".join(lines)
