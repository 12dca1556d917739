"""Tests for observability v2: event log, health monitor, OpenMetrics
export, scrape endpoint and batch-layer instrumentation."""

import json
import math
import socket
import threading
import urllib.request
from collections import Counter, defaultdict
from dataclasses import replace
from fnmatch import fnmatchcase
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import PositionFix
from repro.obs import (
    DEGRADED,
    FAILING,
    OK,
    EventLog,
    HealthMonitor,
    HealthRule,
    JsonlSink,
    MetricsRegistry,
    MetricsServer,
    default_realtime_rules,
    format_snapshot,
    parse_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
    watch_broker,
)
from repro.obs.metrics import Histogram
from repro.streams import Broker, Record
from tests.conftest import COMPOSITIONS
from tests.plants import chunks

class TestEventLog:
    def test_emit_keeps_events_in_order(self):
        log = EventLog(capacity=16)
        log.emit("info", "broker", "started")
        log.emit("warn", "broker", "retention_drop", dropped=3)
        log.emit("error", "cep", "failure", t=42.0)
        assert log.emitted == 3
        events = log.events()
        assert [(e.severity, e.component, e.kind) for e in events] == [
            ("info", "broker", "started"), ("warn", "broker", "retention_drop"), ("error", "cep", "failure"),
        ]
        assert events[2].t == 42.0
        assert events[1].tags == {"dropped": 3}

    def test_ring_overwrites_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("info", "c", f"k{i}")
        assert log.emitted == 5
        assert len(log) == 3
        assert log.overwritten == 2
        assert [e.kind for e in log.tail()] == ["k2", "k3", "k4"]

    def test_snapshot_shape(self):
        log = EventLog(capacity=8)
        log.emit("info", "c", "a")
        log.emit("warn", "c", "b")
        snap = log.snapshot()
        assert snap["emitted"] == 2 and snap["retained"] == 2
        assert snap["by_severity"] == {"info": 1, "warn": 1}
        assert [event["kind"] for event in snap["recent"]] == ["a", "b"]
        assert json.loads(json.dumps(snap)) == snap

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            EventLog().emit("fatal", "c", "k")

    def test_sink_sees_events_the_ring_discards(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            log = EventLog(capacity=2, sink=sink)
            for i in range(5):
                log.emit("info", "c", f"k{i}")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["kind"] for row in lines] == [f"k{i}" for i in range(5)]
        assert sink.written == 5
        assert len(log) == 2  # ring stayed bounded

    def test_watch_broker_emits_retention_drops(self):
        log = EventLog()
        broker = Broker()
        broker.create_topic("raw", retention=2)
        watch_broker(broker, log)
        for i in range(5):
            broker.topic("raw").publish(Record(float(i), i))
        drops = [e for e in log.events() if (e.component, e.kind) == ("broker", "retention_drop")]
        assert drops
        assert sum(e.tags["dropped"] for e in drops) == 3
        assert all(e.severity == "warn" for e in drops)


class TestOpenMetrics:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("stage.raw.records").inc(12)
        reg.gauge("broker.lag.raw.g1").set(3.0)
        hist = reg.histogram("op.clean.latency_s")
        for v in range(1, 101):
            hist.observe(v / 1000.0)
        return reg

    def test_round_trips_through_parser(self):
        reg = self.make_registry()
        text = render_openmetrics(reg)
        families = parse_openmetrics(text)
        assert families["stage_raw_records"]["type"] == "counter"
        assert families["stage_raw_records"]["samples"]["stage_raw_records_total"] == 12.0
        assert families["broker_lag_raw_g1"]["type"] == "gauge"
        assert families["broker_lag_raw_g1"]["samples"]["broker_lag_raw_g1"] == 3.0
        summary = families["op_clean_latency_s"]
        assert summary["type"] == "summary"
        assert summary["samples"]["op_clean_latency_s_count"] == 100.0
        assert summary["samples"]['op_clean_latency_s{quantile="0.5"}'] == pytest.approx(0.05, rel=0.2)

    def test_snapshot_and_registry_render_identically(self):
        reg = self.make_registry()
        assert render_openmetrics(reg) == render_openmetrics(reg.snapshot())

    def test_terminates_with_eof(self):
        assert render_openmetrics(MetricsRegistry()).endswith("# EOF\n")

    def test_sanitization(self):
        assert sanitize_metric_name("op.clean-2.latency_s") == "op_clean_2_latency_s"
        assert sanitize_metric_name("9lives") == "_9lives"
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        assert "a_b" in parse_openmetrics(render_openmetrics(reg))

    def test_nan_gauge_renders_as_nan(self):
        reg = MetricsRegistry()
        reg.gauge("g", fn=lambda: math.nan)
        text = render_openmetrics(reg)
        assert "g NaN" in text
        families = parse_openmetrics(text)
        assert math.isnan(families["g"]["samples"]["g"])

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_openmetrics("# TYPE x counter\nnot a sample line with too many fields\n")


class TestMetricsServer:
    def test_scrape_and_healthz(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("lag").set(0.0)
        monitor = HealthMonitor(reg)
        monitor.add_rule("broker", "lag", 10.0, 100.0)
        with MetricsServer(reg, health=monitor) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                assert resp.status == 200
                families = parse_openmetrics(resp.read().decode())
            assert families["c"]["samples"]["c_total"] == 7.0
            with urllib.request.urlopen(f"{server.url}/healthz") as resp:
                body = json.loads(resp.read().decode())
            assert resp.status == 200 and body["system"] == OK

            # Drive the gauge over the failing threshold: /healthz turns 503
            # on the second evaluation in a row (the hysteresis).
            reg.gauge("lag").set(500.0)
            monitor.evaluate()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/healthz")
            assert err.value.code == 503
            assert json.loads(err.value.read().decode())["system"] == FAILING

    def test_unknown_path_404(self):
        with MetricsServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope")
            assert err.value.code == 404

    def test_an_unstarted_server_stops_and_releases_its_port(self):
        server = MetricsServer(MetricsRegistry())
        port = server.port
        # On a thread: a stop() that waits for a loop that never ran must
        # fail this test, not hang the suite.
        stopper = threading.Thread(target=lambda: (server.stop(), server.stop()), daemon=True)
        stopper.start()
        stopper.join(timeout=1.0)
        assert not stopper.is_alive()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))


class TestHealthRule:
    def test_levels(self):
        rule = HealthRule("c", "m", degraded_above=10.0, failing_above=100.0)
        assert rule.level(5.0) == OK
        assert rule.level(50.0) == DEGRADED
        assert rule.level(500.0) == FAILING
        assert rule.level(math.nan) == OK  # no data is not an alert

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            HealthRule("c", "m", degraded_above=10.0, failing_above=1.0)


class TestHealthMonitor:
    def make(self):
        reg = MetricsRegistry()
        reg.gauge("broker.lag.raw.batch").set(0.0)
        log = EventLog()
        monitor = HealthMonitor(reg, event_log=log)
        monitor.add_rule("broker", "broker.lag.*", 100.0, 1000.0)
        return reg, log, monitor

    def test_escalates_and_recovers_with_hysteresis(self):
        reg, log, monitor = self.make()
        gauge = reg.gauge("broker.lag.raw.batch")
        assert monitor.evaluate()["broker"] == OK

        gauge.set(200.0)                       # degraded regime
        assert monitor.evaluate()["broker"] == OK          # 1st breach: held back
        assert monitor.evaluate()["broker"] == DEGRADED    # 2nd consecutive: flips

        gauge.set(2000.0)                      # failing regime
        assert monitor.evaluate()["broker"] == DEGRADED
        assert monitor.evaluate()["broker"] == FAILING
        assert monitor.system_state() == FAILING

        gauge.set(0.0)                         # recovery needs its own streak
        assert monitor.evaluate()["broker"] == FAILING
        assert monitor.evaluate()["broker"] == OK

        kinds = [e.message for e in log.events() if (e.component, e.kind) == ("health", "transition")]
        assert kinds == ["broker: OK -> DEGRADED", "broker: DEGRADED -> FAILING", "broker: FAILING -> OK"]

    def test_single_spike_does_not_flap(self):
        reg, _, monitor = self.make()
        gauge = reg.gauge("broker.lag.raw.batch")
        monitor.evaluate()
        gauge.set(5000.0)
        monitor.evaluate()       # one bad poll...
        gauge.set(0.0)
        monitor.evaluate()
        assert monitor.state("broker") == OK
        assert monitor.snapshot()["components"]["broker"]["transitions"] == 0

    def test_wildcard_binds_gauges_registered_later(self):
        reg = MetricsRegistry()
        monitor = HealthMonitor(reg)
        monitor.add_rule("broker", "broker.lag.*", 100.0, 1000.0)
        assert monitor.evaluate()["broker"] == OK   # no gauges yet: healthy
        reg.gauge("broker.lag.clean.quality").set(50_000.0)
        monitor.evaluate()
        assert monitor.evaluate()["broker"] == FAILING
        breach = monitor.snapshot()["components"]["broker"]["last_breach"]
        assert breach == {"broker.lag.clean.quality": 50_000.0}

    def test_snapshot_is_json_serializable(self):
        _, _, monitor = self.make()
        monitor.evaluate()
        snap = monitor.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["system"] == OK

    def test_default_rules_cover_the_figure2_modes(self):
        monitor = default_realtime_rules(HealthMonitor(MetricsRegistry()))
        metrics = {rule.metric for rule in monitor._rules}
        assert metrics == {"broker.lag.*", "realtime.error_rate"}


class TestEmptyHistogram:
    """An empty histogram's statistics are NaN, not a fake 0.0."""

    def test_quantiles_nan_when_empty(self):
        h = Histogram("h")
        assert math.isnan(h.quantile(0.5))
        assert all(math.isnan(v) for v in h.quantiles().values())
        assert math.isnan(h.mean)

    def test_snapshot_nan_min_max_when_empty(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert math.isnan(snap["min"]) and math.isnan(snap["max"])

    def test_distinguishable_from_true_zero(self):
        zero = Histogram("h")
        zero.observe(0.0)
        assert zero.quantile(0.5) == 0.0            # a real observed zero
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_format_snapshot_renders_dash(self):
        reg = MetricsRegistry()
        reg.histogram("empty.latency_s")
        text = format_snapshot(reg.snapshot())
        line = next(ln for ln in text.splitlines() if "empty.latency_s" in ln)
        assert "p50=-" in line and "nan" not in line


class TestGaugeConflict:
    """Satellite: re-registering a set-based gauge with a callback raises."""

    def test_set_based_to_callback_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(4.0)
        with pytest.raises(ValueError, match="set-based"):
            reg.gauge("depth", fn=lambda: 0.0)
        assert reg.gauge("depth").value() == 4.0    # original survives

    def test_callback_rebind_still_allowed(self):
        reg = MetricsRegistry()
        reg.gauge("live", fn=lambda: 1.0)
        assert reg.gauge("live", fn=lambda: 2.0).value() == 2.0

    def test_plain_reread_of_either_kind_ok(self):
        reg = MetricsRegistry()
        reg.gauge("a").set(1.0)
        reg.gauge("b", fn=lambda: 5.0)
        assert reg.gauge("a").value() == 1.0
        assert reg.gauge("b").value() == 5.0


def _run_realtime(polls=None):
    from repro.core import RealtimeLayer, SystemConfig
    from repro.datasources import AISConfig, AISSimulator

    layer = RealtimeLayer(SystemConfig(n_regions=10, n_ports=5, seed=3))
    if polls is None:
        sim = AISSimulator(n_vessels=2, seed=4, config=AISConfig(report_period_s=120.0))
        polls = [sim.fixes(0.0, 1200.0)]
    for poll in polls:
        layer.run(poll)
    return layer, layer.report


def _run_trees(layer):
    """Each trace of the layer as (root, children)."""
    tracer = layer.tracer
    trees = []
    for trace_id in tracer.traces():
        root, *children = tracer.trace(trace_id)
        assert root.parent_id is None and all(c.parent_id == root.span_id for c in children)
        trees.append((root, children))
    return trees


class TestRunTraceShape:
    """Satellite: the per-run shape of the lineage tracer — one ``run``
    root per ``run()`` call, one child per region the run reached."""

    #: The regions of a plain ``run()``, in poll order.
    REGIONS = [
        "clean", "area_events", "synopses", "link_discovery",
        "dashboard", "proximity", "cep", "publish", "health",
    ]
    #: A sharded parent's regions; the replicas' hang under ``shards``.
    SHARDED_REGIONS = [
        "route", "shards", "fold", "merge", "dashboard", "proximity", "cep", "publish", "health",
    ]

    def test_a_whole_stream_is_one_root_with_one_child_per_region(self):
        """The trace does not scale with fixes: a whole stream is one root
        and one child per region, whose attrs are the stage's exact counts."""
        layer, report = _run_realtime()
        [(root, children)] = _run_trees(layer)
        # No ``cep`` region without a trained engine.
        assert root.name == "run" and [c.name for c in children] == [r for r in self.REGIONS if r != "cep"]
        assert all(s.end is not None for s in layer.tracer.spans())
        attrs = {c.name: (c.tags["n_in"], c.tags["n_out"]) for c in children[:4]}
        entity_links = report.links - report.proximity_links
        assert attrs == {
            "clean": (report.raw_fixes, report.clean_fixes),
            "area_events": (report.clean_fixes, report.area_events),
            "synopses": (report.clean_fixes, report.critical_points),
            "link_discovery": (report.critical_points, entity_links),
        }
        assert sum(c.duration_s for c in children) <= root.duration_s

    def test_max_spans_bounds_the_trace_and_the_probes_lose_nothing(self):
        """What bounds the trace is ``Tracer.max_spans``, and the layer
        runs on past it."""
        from repro.core import RealtimeLayer, SystemConfig
        from repro.datasources import AISConfig, AISSimulator

        layer = RealtimeLayer(SystemConfig(n_regions=10, n_ports=5, seed=3))
        layer.tracer.max_spans = 7
        fixes = list(AISSimulator(n_vessels=2, seed=4, config=AISConfig(report_period_s=120.0)).fixes(0.0, 1200.0))
        for i in range(0, len(fixes), 4):
            layer.run(fixes[i : i + 4])
        assert layer.report.raw_fixes == len(fixes)
        assert len(layer.tracer.spans()) == 7 and layer.tracer.dropped_spans > 0
        # Spans past the bound still time their stage: the probes lose nothing.
        assert layer.metrics.counter("op.clean.records_out").value == layer.report.clean_fixes

    @settings(max_examples=20, deadline=None)
    @given(
        offsets=st.lists(
            st.integers(min_value=-2, max_value=8), min_size=3, max_size=30
        ),
        n_polls=st.integers(min_value=1, max_value=4),
    )
    def test_every_run_yields_one_finished_root(self, offsets, n_polls):
        """Even with regressing timestamps (records the pipeline drops)
        and empty polls, every run yields exactly one finished root whose
        children are finished, in stage order, and sum to no more than it."""
        t = 0.0
        fixes = []
        for i, off in enumerate(offsets):
            t += off * 30.0
            fixes.append(
                PositionFix("v1", t, lon=9.0 + i * 1e-3, lat=37.0, speed=5.0, heading=90.0)
            )
        size = -(-len(fixes) // n_polls)
        polls = [fixes[i * size : (i + 1) * size] for i in range(n_polls)]
        layer, report = _run_realtime(polls)
        trees = _run_trees(layer)
        assert len(trees) == n_polls and report.raw_fixes == len(fixes)
        clean_out = 0
        for root, children in trees:
            assert root.name == "run" and root.end is not None
            assert all(c.end is not None and {"n_in", "n_out"} <= c.tags.keys() for c in children)
            names = [c.name for c in children]
            assert names == [region for region in self.REGIONS if region in names]
            assert sum(c.duration_s for c in children) <= root.duration_s
            clean_out += sum(c.tags["n_out"] for c in children if c.name == "clean")
        assert clean_out == report.clean_fixes <= len(fixes)

    @pytest.mark.parametrize("composition", COMPOSITIONS)
    def test_every_second_of_a_run_is_in_one_region(self, composition):
        """Over the tier-1 stream in five polls, on every composition: the
        regions of each ``run()`` add up to its ``run`` root, the roots to
        ``realtime.wall_s`` and that to the wall around the calls; each
        region's probe counts the polls that reached it; a sharded poll is
        one trace, every replica's ``run`` hung under that poll's
        ``shards`` span, an in-process replica's adding up the same way;
        and the fold writes no gauge of the layer's own. A pooled
        replica's regions are only bounded by its root: between two of
        them its worker process may be descheduled, which measures the
        OS scheduler, not the code."""
        from repro.core import RealtimeLayer, ShardedRealtimeLayer
        from tests.test_core_per_fix_oracle import CFG, symbols, tier1

        fields, fixes = COMPOSITIONS[composition], tier1()
        with (ShardedRealtimeLayer if fields else RealtimeLayer)(replace(CFG, **fields), symbols()) as layer:
            built = {name for name in layer.metrics.gauges() if not name.startswith("shard.")}
            measured = 0.0
            for poll in chunks(fixes, [len(fixes) * i // 5 for i in range(1, 5)]):
                t0 = perf_counter()
                layer.run(poll)
                measured += perf_counter() - t0
        children = defaultdict(list)
        for span in layer.tracer.spans():
            children[span.parent_id].append(span)

        def covered(roots):
            """The share of the roots' seconds their direct children hold."""
            return sum(c.duration_s for root in roots for c in children[root.span_id]) / sum(
                root.duration_s for root in roots
            )

        roots = children[None]
        assert [root.name for root in roots] == ["run"] * 5 and len(layer.tracer.traces()) == 5
        assert 0.95 <= covered(roots) <= 1.0
        wall = layer.metrics.gauge("realtime.wall_s").value()
        assert wall == pytest.approx(sum(root.duration_s for root in roots), rel=1e-12)
        assert 0.95 <= wall / measured <= 1.0
        order = self.SHARDED_REGIONS if fields else self.REGIONS
        reached = Counter()
        for root in roots:
            names = [c.name for c in children[root.span_id]]
            assert names == [region for region in order if region in names]
            reached.update(names)
        counters = layer.metrics.counters("op.")
        assert {name: counters[f"op.{name}.batches"] for name in reached} == reached
        assert reached["cep"] > 0 and reached[order[0]] == 5
        gauges = layer.metrics.gauges()
        assert {name for name in gauges if not name.startswith("shard.")} == built
        assert [name for name, v in gauges.items() if name.endswith(("ratio", "rate")) and not 0.0 <= v <= 1.0] == []
        if not fields:
            return
        replicas = []
        for root in roots:
            [shards] = [c for c in children[root.span_id] if c.name == "shards"]
            hung = children[shards.span_id]
            assert [(span.name, span.tags["shard"]) for span in hung] == [("run", i) for i in range(layer.n_shards)]
            assert {span.trace_id for span in hung} == {root.trace_id}
            replicas += hung
        assert covered(replicas) <= 1.0
        if not fields.get("worker_pool"):
            assert covered(replicas) >= 0.95


class TestBatchInstrumentation:
    @pytest.fixture(scope="class")
    def system(self):
        from repro.core import DatacronSystem, SystemConfig
        from repro.datasources import AISConfig, AISSimulator

        config = SystemConfig(n_regions=10, n_ports=5, seed=3)
        system = DatacronSystem(config, t_origin=0.0, t_extent_s=3600.0)
        sim = AISSimulator(n_vessels=3, seed=4, config=AISConfig(report_period_s=60.0))
        system.run(sim.fixes(0.0, 1800.0))
        system.batch.nodes_in_range(config.bbox, 0.0, 1800.0)
        return system

    def test_kgstore_and_batch_metrics(self, system):
        snap = system.metrics.snapshot()
        assert snap["counters"]["kg.triples_loaded"] > 0
        assert snap["counters"]["kg.queries"] >= 1
        assert snap["gauges"]["kg.triples_stored"] > 0
        assert snap["histograms"]["kg.query_latency_s"]["count"] >= 1
        assert snap["counters"]["batch.ingests"] == 1
        assert snap["counters"]["op.load.batches"] == 1
        assert snap["gauges"]["batch.wall_s"] > 0.0

    def test_synopses_and_linkdiscovery_metrics(self, system):
        snap = system.metrics.snapshot()
        # The synopses counts are the probe's counters, no gauge copies them.
        assert 0 < snap["counters"]["op.synopses.records_out"] <= snap["counters"]["op.synopses.records_in"]
        assert not {"synopses.fixes_in", "synopses.points_out", "synopses.compression_ratio"} & snap["gauges"].keys()
        assert snap["counters"]["linkdiscovery.region.entities"] > 0
        assert snap["counters"]["linkdiscovery.port.entities"] > 0
        assert "linkdiscovery.proximity.candidate_pairs" in snap["gauges"]

    def test_health_and_events_in_system_metrics(self, system):
        snap = system.system_metrics()
        assert snap["health"]["system"] in (OK, DEGRADED, FAILING)
        assert set(snap["health"]["components"]) == {"broker", "clean"}
        kinds = [e["kind"] for e in snap["events"]["recent"]]
        assert "run_started" in kinds and "run_finished" in kinds

    def test_every_default_rule_watches_a_live_gauge(self, live_system):
        """A rule whose glob matches no gauge of a real run can never fire,
        on any composition of the real-time layer."""
        gauges = live_system.metrics.gauges()
        dead = [
            rule.metric
            for rule in live_system.realtime.health._rules
            if not any(fnmatchcase(name, rule.metric) for name in gauges)
        ]
        assert dead == []

    def test_dashboard_frame_leads_with_health(self, system):
        frame = system.dashboard_frame(t=0.0)
        assert frame.splitlines()[1].startswith("health: ")

    def test_cep_metrics(self):
        from repro.cep import TURN_ALPHABET, WayebEngine, north_to_south_reversal, SimpleEvent

        reg = MetricsRegistry()
        engine = WayebEngine(
            north_to_south_reversal(), TURN_ALPHABET, order=1, threshold=0.5, horizon=60,
            registry=reg,
        )
        engine.train([TURN_ALPHABET[0]] * 10)
        events = [SimpleEvent(TURN_ALPHABET[0], float(i)) for i in range(5)]
        engine.run(events)
        snap = reg.snapshot()
        assert snap["counters"]["cep.events"] == 5
        assert snap["counters"]["cep.automaton.transitions"] == 5
        assert snap["histograms"]["cep.match_latency_s"]["count"] == 5
