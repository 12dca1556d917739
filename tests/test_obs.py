"""Tests for the observability layer: metrics, instrumentation, tracing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    OperatorProbe,
    Tracer,
    consumer_lags,
    format_snapshot,
    instrument_broker,
    instrument_consumer,
    operator_rates,
)
from repro.obs.metrics import RELATIVE_ACCURACY, ZERO_BELOW, Histogram
from repro.streams import Broker, Record
from tests.oracles.nearest_rank import nearest_rank


class TestCounter:
    def test_increments(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.counter("x").value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")


class TestGauge:
    def test_set_and_read(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3.5)
        assert g.value() == 3.5

    def test_set_on_callback_gauge_rejected(self):
        g = MetricsRegistry().gauge("live", fn=lambda: 1)
        with pytest.raises(ValueError):
            g.set(2.0)


class TestHistogram:
    def test_count_sum_and_extrema_exact_median_within_accuracy(self):
        h = Histogram("h")
        for v in range(10):
            h.observe(float(v))
        assert h.count == 10
        assert h.sum == 45.0
        assert h.min == 0.0 and h.max == 9.0
        assert h.quantile(0.5) == pytest.approx(5.0, rel=RELATIVE_ACCURACY)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 9.0

    def test_buckets_grow_with_the_log_of_the_range(self):
        h = Histogram("h")
        for v in range(1, 100_001):
            h.observe(float(v))
        assert h.count == 100_000
        # One bucket per factor γ = (1+α)/(1-α): ln(1e5)/ln(γ) ≈ 576.
        assert len(h.buckets) <= 580
        assert h.max == 100_000.0  # exact extrema survive bucketing

    def test_one_stream_snapshots_alike_in_two_registries(self):
        """No RNG: two registries fed the same stream snapshot identically."""
        a = MetricsRegistry().histogram("lat")
        b = MetricsRegistry().histogram("lat")
        for v in range(5_000):
            a.observe(float(v % 97))
            b.observe(float(v % 97))
        assert a.snapshot() == b.snapshot()
        assert a.buckets == b.buckets

    def test_quantiles_dict(self):
        h = Histogram("h")
        for v in range(100):
            h.observe(float(v))
        q = h.quantiles()
        assert q["p50"] == pytest.approx(50.0, rel=RELATIVE_ACCURACY)
        assert q["p95"] == pytest.approx(95.0, rel=RELATIVE_ACCURACY)
        assert q["p99"] == 99.0  # the top rank is the exact max

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=200),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_quantiles_within_relative_accuracy_of_sorted_oracle(self, values, qs):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        assert h.quantile(0.0) == min(values)
        assert h.quantile(1.0) == max(values)
        for q in (*qs, 0.5, 0.95, 0.99):
            got, want = h.quantile(q), nearest_rank(values, q)
            if abs(want) < ZERO_BELOW:
                assert abs(got - want) < ZERO_BELOW
            else:
                # α, plus float slack for a value on a bucket boundary.
                assert abs(got - want) <= RELATIVE_ACCURACY * (1 + 1e-9) * abs(want), (q, got, want)

    def test_one_value_is_exact(self):
        h = Histogram("h")
        for _ in range(3):
            h.observe(0.123456789)
        assert set(h.quantiles().values()) == {0.123456789}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)


class TestRegistry:
    def test_time_context_manager(self):
        reg = MetricsRegistry()
        with reg.time("op.latency_s"):
            pass
        hist = reg.histogram("op.latency_s")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.25)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 1.25
        assert snap["histograms"]["h"]["count"] == 1

    def test_prefix_filters(self):
        reg = MetricsRegistry()
        reg.counter("op.a.records_in").inc()
        reg.counter("other").inc()
        assert list(reg.counters("op.")) == ["op.a.records_in"]

    def test_format_snapshot_renders(self):
        reg = MetricsRegistry()
        reg.counter("stage.raw.records").inc(10)
        reg.gauge("lag").set(2.0)
        reg.histogram("h").observe(0.25)
        text = format_snapshot(reg.snapshot(), title="t")
        assert "== t ==" in text
        assert "stage.raw.records" in text
        assert "p95" in text


class TestOperatorInstrumentation:
    def test_probe_counts_and_latency(self):
        reg = MetricsRegistry()
        probe = OperatorProbe(reg, "double")
        probe.observe(1, 0.25)
        probe.observe(0, 0.5, n_in=3)
        assert reg.counter("op.double.records_in").value == 4
        assert reg.counter("op.double.records_out").value == 1
        assert reg.counter("op.double.batches").value == 2
        assert reg.histogram("op.double.latency_s").count == 2

    def test_operator_rates_view(self):
        reg = MetricsRegistry()
        probe = OperatorProbe(reg, "stage")
        probe.observe(2, 0.5)
        probe.observe(1, 0.5)
        rates = operator_rates(reg)
        assert rates["stage"]["records_in"] == 2
        assert rates["stage"]["records_out"] == 3
        assert rates["stage"]["records_s"] == pytest.approx(2.0)
        assert rates["stage"]["p95_ms"] == pytest.approx(500.0)


class TestBrokerInstrumentation:
    def test_topic_gauges_live(self):
        reg = MetricsRegistry()
        broker = Broker()
        broker.create_topic("raw", partitions=2, retention=3)
        instrument_broker(broker, reg)
        for i in range(5):
            broker.topic("raw").publish(Record(float(i), i))
        assert reg.gauge("broker.topic.raw.published").value() == 5.0
        assert reg.gauge("broker.topic.raw.size").value() <= 5.0
        assert reg.gauge("broker.topic.raw.dropped").value() >= 0.0

    def test_consumer_lag_gauge(self):
        reg = MetricsRegistry()
        broker = Broker()
        broker.create_topic("raw")
        consumer = instrument_consumer(broker.consumer("raw", "g1"), reg)
        broker.topic("raw").publish(Record(0.0, "a"))
        broker.topic("raw").publish(Record(1.0, "b"))
        assert consumer_lags(reg) == {"raw.g1": 2}
        consumer.poll()
        assert consumer_lags(reg) == {"raw.g1": 0}


class TestTracer:
    def make(self):
        clock = {"t": 0.0}

        def tick():
            clock["t"] += 1.0
            return clock["t"]

        return Tracer(clock=tick)

    def test_span_tree_and_durations(self):
        tracer = self.make()
        root = tracer.start_trace("record", entity_id="v1")
        child = tracer.start_span("synopses", root)
        tracer.finish(child)
        tracer.finish(root)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert child.duration_s == 1.0  # one tick between open and close
        assert root.duration_s == 3.0

    def test_traces_are_grouped(self):
        tracer = self.make()
        a = tracer.start_trace("record")
        b = tracer.start_trace("record")
        tracer.start_span("stage", a)
        assert tracer.traces() == [a.trace_id, b.trace_id]
        assert len(tracer.trace(a.trace_id)) == 2
        assert len(tracer.trace(b.trace_id)) == 1

    def test_lineage_rendering(self):
        tracer = self.make()
        root = tracer.start_trace("record", entity_id="v9")
        tracer.finish(tracer.start_span("clean", root))
        tracer.finish(tracer.start_span("link_discovery", root))
        tracer.finish(root)
        text = tracer.lineage(root.trace_id)
        lines = text.splitlines()
        assert lines[0].startswith("record ")
        assert "entity_id=v9" in lines[0]
        assert lines[1].startswith("  clean ")
        assert lines[2].startswith("  link_discovery ")

    def test_max_spans_bounds_memory(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.max_spans = 3
        root = tracer.start_trace("record")
        for _ in range(5):
            tracer.finish(tracer.start_span("s", root))
        assert len(tracer.spans()) == 3
        assert tracer.dropped_spans == 3


class TestRealtimeIntegration:
    def test_system_metrics_view(self):
        from repro.core import DatacronSystem, SystemConfig
        from repro.datasources import AISConfig, AISSimulator

        config = SystemConfig(n_regions=10, n_ports=5, seed=3)
        system = DatacronSystem(config, t_origin=0.0, t_extent_s=3600.0)
        sim = AISSimulator(n_vessels=3, seed=4, config=AISConfig(report_period_s=60.0))
        run = system.run(sim.fixes(0.0, 1800.0))

        metrics = system.system_metrics()
        assert metrics["counters"]["stage.raw.records"] == run.realtime.raw_fixes
        assert metrics["counters"]["op.clean.records_in"] == run.realtime.raw_fixes
        assert metrics["counters"]["op.clean.records_out"] == run.realtime.clean_fixes
        # Ingest -> enriched latency, from the poll's hand-over stamp: one
        # observation per critical point (there is no per-fix histogram).
        assert metrics["histograms"]["e2e.record_latency_s"]["count"] == run.realtime.critical_points
        assert "realtime.fix_latency_s" not in metrics["histograms"]
        assert metrics["operators"]["clean"]["records_s"] > 0.0
        # The batch layer drained the synopses topic: its lag gauge reads zero.
        assert metrics["consumer_lag"]["trajectories.synopses.batch"] == 0
        # One trace per run(): a `run` root over the regions of the run
        # (no `cep` without a trained engine).
        [trace] = system.realtime.tracer.traces()
        names = [sp.name for sp in system.realtime.tracer.trace(trace)]
        assert names == [
            "run", "clean", "area_events", "synopses", "link_discovery",
            "dashboard", "proximity", "publish", "health",
        ]

    def test_dashboard_renders_registry(self):
        from repro.core import DatacronSystem, SystemConfig
        from repro.datasources import AISConfig, AISSimulator

        config = SystemConfig(n_regions=10, n_ports=5, seed=3)
        system = DatacronSystem(config, t_origin=0.0, t_extent_s=3600.0)
        sim = AISSimulator(n_vessels=3, seed=4, config=AISConfig(report_period_s=60.0))
        system.run(sim.fixes(0.0, 900.0))
        frame = system.dashboard_frame(t=900.0)
        assert "positions=" in frame
        assert "operators (records/s" in frame
        assert "consumer lag:" in frame
