"""Tests for the cross-process observability harvest (repro.obs.harvest):
snapshot/harvest plumbing, per-run deltas and the fold into a parent
registry, over controlled observations. What the sharded layer folds on
both hosts is held to the conservation laws of the equivalence matrix
(``test_core_per_fix_oracle.py``): merged = Σ ``shard.<i>.*`` after
every poll, each ``shard.<i>.<name>`` equal to replica *i*'s own counter,
and the pooled registry's counters equal the in-process layer's.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    EventLog,
    MetricsRegistry,
    ObsHarvest,
    Tracer,
    fold_harvests,
    harvest_obs,
    parse_openmetrics,
    render_openmetrics,
    snapshot_registry,
)
from repro.obs.metrics import Histogram

def nonshard_counters(registry: MetricsRegistry) -> dict[str, int]:
    return {
        name: value
        for name, value in registry.counters().items()
        if not name.startswith("shard.")
    }


# -- harvest / snapshot plumbing ----------------------------------------------------


def make_harvest(shard: int, counters=(), gauges=(), observations=(), wall=0.0, setup=0.0) -> ObsHarvest:
    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, value in gauges:
        registry.gauge(name).set(value)
    for name, values in observations:
        h = registry.histogram(name)
        for v in values:
            h.observe(v)
    return harvest_obs(shard, registry, wall_seconds=wall, setup_seconds=setup)


def test_snapshot_materializes_callback_gauges():
    registry = MetricsRegistry()
    state = {"depth": 7.0}
    registry.gauge("op.x.queue_depth", fn=lambda: state["depth"])
    snap = snapshot_registry(registry)
    assert snap.gauges["op.x.queue_depth"] == 7.0
    # The frozen snapshot must survive pickling even though the live
    # gauge holds an unpicklable closure (satellite: fork-safe gauges).
    restored = pickle.loads(pickle.dumps(snap))
    assert restored.gauges["op.x.queue_depth"] == 7.0


def test_harvest_is_picklable_end_to_end():
    registry = MetricsRegistry()
    registry.counter("op.x.records_in").inc(5)
    registry.gauge("op.x.queue_depth", fn=lambda: 3.0)
    registry.histogram("op.x.latency_s").observe(0.25)
    events = EventLog()
    events.emit("warn", "broker", "retention_drop", topic="raw")
    tracer = Tracer()
    tracer.finish(tracer.start_trace("shard.run"))
    harvest = harvest_obs(2, registry, events, tracer, wall_seconds=1.5)
    restored = pickle.loads(pickle.dumps(harvest))
    assert restored.shard == 2
    assert restored.metrics.counters["op.x.records_in"] == 5
    assert restored.metrics.gauges["op.x.queue_depth"] == 3.0
    assert restored.metrics.histograms["op.x.latency_s"].count == 1
    assert restored.events[0]["kind"] == "retention_drop"
    assert restored.spans[0].name == "shard.run"
    assert restored.wall_seconds == 1.5


def test_delta_subtracts_counters_and_filters_events():
    registry = MetricsRegistry()
    events = EventLog()
    registry.counter("op.x.records_in").inc(3)
    events.emit("info", "a", "first")
    first = harvest_obs(0, registry, events, wall_seconds=1.0)
    registry.counter("op.x.records_in").inc(4)
    registry.counter("op.y.records_in").inc(2)
    events.emit("info", "a", "second")
    second = harvest_obs(0, registry, events, wall_seconds=1.5)
    delta = second.delta(first)
    assert delta.metrics.counters == {"op.x.records_in": 4, "op.y.records_in": 2}
    assert [e["kind"] for e in delta.events] == ["second"]
    assert delta.wall_seconds == pytest.approx(0.5)
    # Folding first + delta reproduces folding the cumulative harvest.
    via_delta, cumulative = MetricsRegistry(), MetricsRegistry()
    fold_harvests(via_delta, [first])
    fold_harvests(via_delta, [delta])
    fold_harvests(cumulative, [second])
    assert nonshard_counters(via_delta) == nonshard_counters(cumulative)


def test_delta_against_none_is_identity():
    harvest = make_harvest(0, counters=[("op.x.records_in", 3)], wall=1.0)
    assert harvest.delta(None) is harvest


def test_delta_subtracts_setup_seconds():
    """Setup cost is cumulative like the wall: only the run that (re)built
    the replica carries it in its delta, so folds never double-count it."""
    registry = MetricsRegistry()
    first = harvest_obs(0, registry, wall_seconds=1.0, setup_seconds=0.25)
    second = harvest_obs(0, registry, wall_seconds=1.5, setup_seconds=0.25)
    delta = second.delta(first)
    assert delta.setup_seconds == 0.0
    assert first.delta(None).setup_seconds == 0.25


# Arbitrary finite observations, bounded so that no sum overflows.
finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)

_COUNTER_NAMES = ("op.a.records_in", "op.b.records_out", "stage.raw.records")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.sampled_from(_COUNTER_NAMES), st.integers(0, 1_000)),
                max_size=4,
            ),
            st.lists(finite_floats, max_size=8),
        ),
        min_size=3,
        max_size=6,
    )
)
def test_delta_folds_across_runs_equal_one_shot_harvest(runs):
    """>= 3 consecutive runs of one long-lived replica, harvested as
    deltas and folded run by run, must equal the one-shot cumulative
    harvest: counters, histogram count/min/max, every bucket and the
    quantiles bit-equal, the float sum to rounding."""
    registry = MetricsRegistry()
    prev = None
    deltas = []
    for i, (counter_incs, observations) in enumerate(runs):
        for name, by in counter_incs:
            registry.counter(name).inc(by)
        h = registry.histogram("op.a.latency_s")
        for v in observations:
            h.observe(v)
        current = harvest_obs(
            0, registry, wall_seconds=0.5 * (i + 1), setup_seconds=0.25
        )
        deltas.append(current.delta(prev))
        prev = current
    one_shot = harvest_obs(
        0, registry, wall_seconds=0.5 * len(runs), setup_seconds=0.25
    )
    folded, cumulative = MetricsRegistry(), MetricsRegistry()
    for delta in deltas:
        fold_harvests(folded, [delta])
    fold_harvests(cumulative, [one_shot])
    assert folded.counters() == cumulative.counters()
    assert set(folded._histograms) == set(cumulative._histograms)
    scale = math.fsum(abs(v) for _, observations in runs for v in observations)
    for name, expected in cumulative._histograms.items():
        got = folded._histograms[name]
        assert got.count == expected.count, name
        assert got.buckets == expected.buckets, name
        assert (got.min, got.max) == (expected.min, expected.max), name
        assert got.quantiles() == expected.quantiles(), name
        assert got.sum == pytest.approx(expected.sum, rel=0, abs=1e-12 * scale), name


# -- fold semantics ------------------------------------------------------------------


def test_fold_counters_sum_and_keep_per_shard_families():
    registry = MetricsRegistry()
    fold_harvests(registry, [
        make_harvest(0, counters=[("op.x.records_in", 3)]),
        make_harvest(1, counters=[("op.x.records_in", 5)]),
    ])
    counters = registry.counters()
    assert counters["op.x.records_in"] == 8
    assert counters["shard.0.op.x.records_in"] == 3
    assert counters["shard.1.op.x.records_in"] == 5


def test_fold_keeps_gauges_per_shard_only():
    """A gauge is a level of one shard's own state: it lands as
    ``shard.<i>.<name>`` and nowhere else, and the parent's gauges of
    the same names — its own wall, its own broker — keep their values."""
    registry = MetricsRegistry()
    registry.gauge("realtime.wall_s").set(2.0)
    size = "broker.topic.surveillance.raw.size"
    registry.gauge(size, fn=lambda: 42.0)
    before = registry.gauges()
    fold_harvests(registry, [
        make_harvest(0, gauges=[("op.x.queue_depth", 2.0), ("realtime.wall_s", 0.5), (size, 7.0)], wall=0.5),
        make_harvest(1, gauges=[("op.x.queue_depth", 3.0), ("realtime.wall_s", 0.9), (size, 5.0)], wall=0.9),
    ])
    gauges = registry.gauges()
    assert {name: v for name, v in gauges.items() if not name.startswith("shard.")} == before
    assert {name: v for name, v in gauges.items() if name.startswith("shard.")} == {
        "shard.0.op.x.queue_depth": 2.0, "shard.0.realtime.wall_s": 0.5, f"shard.0.{size}": 7.0,
        "shard.1.op.x.queue_depth": 3.0, "shard.1.realtime.wall_s": 0.9, f"shard.1.{size}": 5.0,
    }


def test_fold_events_merge_by_wall_time_with_shard_tags():
    clock_a, clock_b = iter([10.0, 30.0]), iter([20.0])
    log_a = EventLog(clock=lambda: next(clock_a))
    log_b = EventLog(clock=lambda: next(clock_b))
    log_a.emit("info", "a", "first")
    log_a.emit("info", "a", "third")
    log_b.emit("info", "b", "second")
    merged = EventLog()
    registry = MetricsRegistry()
    fold_harvests(registry, [
        harvest_obs(0, MetricsRegistry(), log_a),
        harvest_obs(1, MetricsRegistry(), log_b),
    ], events=merged)
    out = merged.events()
    assert [e.kind for e in out] == ["first", "second", "third"]
    assert [e.tags["shard"] for e in out] == [0, 1, 0]
    assert [e.wall_s for e in out] == [10.0, 20.0, 30.0]


def test_fold_hangs_shard_traces_under_the_given_span():
    shard_tracer = Tracer()
    root = shard_tracer.start_trace("run")
    shard_tracer.finish(shard_tracer.start_span("clean", root))
    shard_tracer.finish(root)
    harvest = harvest_obs(1, MetricsRegistry(), tracer=shard_tracer)
    parent = Tracer()
    poll = parent.start_trace("run")
    shards = parent.finish(parent.start_span("shards", poll))
    fold_harvests(MetricsRegistry(), [harvest], tracer=parent, parent=shards)
    parent.finish(poll)
    *_, absorbed_root, absorbed_child = parent.spans()
    # Fresh ids, the shard's root under the given span, all in its trace,
    # shard-tagged: one trace, rendered as one tree.
    assert (absorbed_root.name, absorbed_root.parent_id) == ("run", shards.span_id)
    assert (absorbed_child.name, absorbed_child.parent_id) == ("clean", absorbed_root.span_id)
    assert {sp.trace_id for sp in parent.spans()} == {poll.trace_id}
    assert absorbed_root.tags["shard"] == absorbed_child.tags["shard"] == 1
    tree = [line.split(" [")[0] for line in parent.lineage(poll.trace_id).splitlines()]
    assert tree == ["run", "  shards", "    run", "      clean"]
    # Without a span to hang them under, shard roots stay roots.
    alone = Tracer()
    fold_harvests(MetricsRegistry(), [harvest], tracer=alone)
    assert [(sp.name, sp.parent_id is None) for sp in alone.spans()] == [("run", True), ("clean", False)]


def test_a_replica_that_evicts_traces_still_ships_its_last_poll():
    """A harvest delta is what the replica traced since the last harvest,
    however many old traces its tracer has evicted in between."""
    from repro.core import ShardedRealtimeLayer, SystemConfig
    from repro.datasources import AISConfig, AISSimulator

    fixes = list(AISSimulator(n_vessels=4, seed=4, config=AISConfig(report_period_s=60.0)).fixes(0.0, 3600.0))

    def last_poll(max_spans):
        layer = ShardedRealtimeLayer(SystemConfig(n_regions=10, n_ports=5, seed=3, n_shards=2))
        for replica in layer.shards:
            replica.tracer.max_spans = max_spans
        for i in range(0, len(fixes), 20):
            layer.run(fixes[i : i + 20])
        assert all(replica.tracer.dropped_spans > 0 for replica in layer.shards) == (max_spans < 100)
        return [(sp.name, sp.tags.get("shard")) for sp in layer.tracer.trace(layer.tracer.traces()[-1])]

    shipped = last_poll(12)
    assert shipped == last_poll(100_000) and ("clean", 1) in shipped


# -- histogram merge ----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(finite_floats, max_size=40), min_size=1, max_size=5))
def test_histogram_merge_preserves_exact_fields(shards):
    """Absorbing per-shard snapshots is the histogram of all observations."""
    merged, direct = Histogram("op.x.latency_s"), Histogram("op.x.latency_s")
    for values in shards:
        registry = MetricsRegistry()
        h = registry.histogram("op.x.latency_s")
        for v in values:
            h.observe(v)
            direct.observe(v)
        merged.absorb(snapshot_registry(registry).histograms["op.x.latency_s"])
    flat = [v for values in shards for v in values]
    assert merged.count == len(flat)
    assert merged.sum == pytest.approx(math.fsum(flat), abs=1e-12 * math.fsum(map(abs, flat)))
    assert merged.buckets == direct.buckets
    assert (merged.min, merged.max) == (direct.min, direct.max)
    if flat:
        assert merged.quantiles() == direct.quantiles()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 100)), max_size=8),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.lists(finite_floats, min_size=1, max_size=30), min_size=1, max_size=4),
)
def test_fold_is_deterministic_byte_identical(counter_shards, observation_shards):
    def build():
        harvests = []
        for i, counters in enumerate(counter_shards):
            harvests.append(make_harvest(i, counters=[(f"op.{k}.records_in", v) for k, v in counters]))
        for j, values in enumerate(observation_shards):
            harvests.append(
                make_harvest(len(counter_shards) + j, observations=[("op.a.latency_s", values)])
            )
        registry = MetricsRegistry()
        fold_harvests(registry, harvests)
        return render_openmetrics(registry.snapshot())
    assert build() == build()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=5))
def test_shard_labeled_openmetrics_round_trip(per_shard):
    registry = MetricsRegistry()
    fold_harvests(registry, [
        make_harvest(i, counters=[("op.clean.records_in", n)], observations=[("op.clean.latency_s", [0.1])])
        for i, n in enumerate(per_shard)
        if n
    ])
    families = parse_openmetrics(render_openmetrics(registry.snapshot()))
    if not any(per_shard):
        assert families == {}
        return
    family = families["shard_op_clean_records_in"]
    assert family["type"] == "counter"
    for i, n in enumerate(per_shard):
        if n:
            assert family["samples"][f'shard_op_clean_records_in_total{{shard="{i}"}}'] == n
    merged = families["op_clean_records_in"]["samples"]["op_clean_records_in_total"]
    assert merged == sum(per_shard)
    # Shard-labeled summary quantiles parse too.
    latency = families["shard_op_clean_latency_s"]
    live = [i for i, n in enumerate(per_shard) if n]
    key = f'shard_op_clean_latency_s{{shard="{live[0]}",quantile="0.5"}}'
    assert latency["samples"][key] == pytest.approx(0.1)
