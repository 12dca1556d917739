"""The sorted-list nearest-rank quantile: the oracle of ``Histogram.quantile``.

``repro.obs.metrics.Histogram`` reads quantiles off fixed log-bucket
counts. This is the rule it approximates, over every observation kept
and sorted: the value at rank ``min(n - 1, int(q * n))``. A bucketed
quantile must lie within ``RELATIVE_ACCURACY`` of it (outside the zero
bucket) and equal it at the lowest and highest rank.
"""

from __future__ import annotations

import math


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values`` by nearest rank; ``nan`` when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
