"""Shared helpers for the paper-reproduction benchmarks.

Every bench prints a "paper vs measured" table through the capture
manager (so the rows appear even without ``-s``), then exercises the hot
path under pytest-benchmark for the timing numbers. Benches that carry
a ``repro.obs.MetricsRegistry`` also emit its snapshot — throughput
counters and latency-histogram quantiles — both as printed output and
into the pytest-benchmark JSON (``extra_info["metrics"]``), so bench
runs archive the same numbers the paper reports. Nothing is written to
disk and nothing is gated here: a performance claim is a
``BENCHMARK.json`` metric measured by ``benchmarks/e2e``.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest


@pytest.fixture
def console(pytestconfig):
    """A context manager that prints through pytest's output capture."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    @contextmanager
    def _disabled():
        if capman is None:
            yield
        else:
            with capman.global_and_fixture_disabled():
                yield

    return _disabled


@pytest.fixture
def emit_metrics(console):
    """Emit a MetricsRegistry snapshot: print it and attach it to bench JSON.

    Usage::

        def test_bench(..., benchmark, emit_metrics):
            registry = MetricsRegistry()
            ...
            emit_metrics(registry, benchmark, title="my bench metrics")
    """
    from repro.obs import format_snapshot

    def _emit(registry, benchmark=None, title: str = "metrics snapshot") -> dict:
        snapshot = registry.snapshot()
        if benchmark is not None:
            benchmark.extra_info["metrics"] = snapshot
        with console():
            print()
            print(format_snapshot(snapshot, title=title))
        return snapshot

    return _emit

