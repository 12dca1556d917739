"""Tests for the cross-process observability harvest (repro.obs.harvest):
snapshot/harvest plumbing, per-run deltas and the fold into a parent
registry, over controlled observations. What the sharded layer folds on
both hosts is tested in ``test_core_sharded.py::TestHarvestFold``.
"""

import math
import pickle
import random

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
from repro.obs.metrics import merge_reservoirs

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


def test_fold_sets_setup_gauge_and_zero_deltas_keep_it():
    registry = MetricsRegistry()
    fold_harvests(registry, [make_harvest(0, wall=1.0, setup=0.25)])
    assert registry.gauge("shard.0.setup_s").value() == 0.25
    # A later delta with zero setup must not clobber the recorded cost.
    fold_harvests(registry, [make_harvest(0, wall=0.5)])
    assert registry.gauge("shard.0.setup_s").value() == 0.25


# Dyadic observation values (quarters, bounded): float addition and
# subtraction over them is exact, so the delta-fold identity below can
# demand bit-equality on histogram sums, not just approximation.
dyadic_quarters = st.integers(min_value=-4_000, max_value=4_000).map(lambda n: n / 4.0)

_COUNTER_NAMES = ("op.a.records_in", "op.b.records_out", "stage.raw.records")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.sampled_from(_COUNTER_NAMES), st.integers(0, 1_000)),
                max_size=4,
            ),
            st.lists(dyadic_quarters, max_size=8),
        ),
        min_size=3,
        max_size=6,
    )
)
def test_delta_folds_across_runs_equal_one_shot_harvest(runs):
    """Satellite contract: >= 3 consecutive runs of one long-lived
    replica, harvested as deltas and folded run by run, must equal the
    one-shot cumulative harvest exactly — counters bit-equal, histogram
    count/sum/min/max exact."""
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
    for name, expected in cumulative._histograms.items():
        got = folded._histograms[name]
        assert got.count == expected.count, name
        assert got.sum == expected.sum, name
        assert got.min == expected.min, name
        assert got.max == expected.max, name
    # Setup cost travels only in the replica-building run's delta, so the
    # folded gauge equals the one-shot's instead of accumulating.
    assert folded.gauge("shard.0.setup_s").value() == 0.25
    assert cumulative.gauge("shard.0.setup_s").value() == 0.25


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


def test_fold_gauge_rules_and_shard_walls():
    registry = MetricsRegistry()
    fold_harvests(registry, [
        make_harvest(0, gauges=[("op.x.queue_depth", 2.0), ("realtime.wall_s", 0.5)], wall=0.5),
        make_harvest(1, gauges=[("op.x.queue_depth", 3.0), ("realtime.wall_s", 0.9)], wall=0.9),
    ])
    gauges = registry.gauges()
    assert gauges["op.x.queue_depth"] == 5.0  # sizes sum
    assert gauges["realtime.wall_s"] == 0.9  # walls take the slowest shard
    assert gauges["shard.0.wall_s"] == 0.5
    assert gauges["shard.1.wall_s"] == 0.9


def test_fold_does_not_clobber_callback_gauges():
    registry = MetricsRegistry()
    registry.gauge("shard.0.wall_s", fn=lambda: 42.0)
    fold_harvests(registry, [make_harvest(0, wall=0.5)])
    assert registry.gauge("shard.0.wall_s").value() == 42.0


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


def test_fold_rehomes_traces_under_synthetic_root():
    shard_tracer = Tracer()
    root = shard_tracer.start_trace("shard.run")
    child = shard_tracer.start_span("window", root)
    shard_tracer.finish(child)
    shard_tracer.finish(root)
    parent = Tracer()
    registry = MetricsRegistry()
    fold = fold_harvests(
        registry,
        [harvest_obs(1, MetricsRegistry(), tracer=shard_tracer)],
        tracer=parent,
    )
    assert fold is not None and fold.name == "sharded.run"
    spans = parent.spans()
    assert len(spans) == 3
    absorbed_root = next(sp for sp in spans if sp.name == "shard.run")
    absorbed_child = next(sp for sp in spans if sp.name == "window")
    # Fresh ids, re-parented under the synthetic root, shard-tagged.
    assert absorbed_root.parent_id == fold.span_id
    assert absorbed_root.trace_id != root.trace_id
    assert absorbed_child.parent_id == absorbed_root.span_id
    assert absorbed_root.tags["shard"] == 1
    lineage = parent.lineage(absorbed_root.trace_id)
    assert "shard.run" in lineage and "window" in lineage


# -- reservoir + histogram merge -----------------------------------------------------


def test_merge_reservoirs_lossless_when_under_capacity():
    parts = [(3, [1.0, 2.0, 3.0]), (2, [4.0, 5.0])]
    assert sorted(merge_reservoirs(parts, 8, random.Random(0))) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_merge_reservoirs_proportional_and_deterministic():
    parts = [(900, [float(i) for i in range(100)]), (100, [float(i) for i in range(100, 150)])]
    first = merge_reservoirs(parts, 50, random.Random(7))
    second = merge_reservoirs(parts, 50, random.Random(7))
    assert first == second
    assert len(first) == 50
    # Largest-remainder allocation: the 90%-weight part gets 45 slots.
    assert sum(1 for v in first if v < 100) == 45


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(finite_floats, max_size=40), min_size=1, max_size=5))
def test_histogram_merge_preserves_exact_fields(shards):
    merged = MetricsRegistry().histogram("op.x.latency_s")
    for values in shards:
        h = MetricsRegistry().histogram("op.x.latency_s")
        for v in values:
            h.observe(v)
        merged.absorb(h.count, h.sum, h.min, h.max, h.samples())
    flat = [v for values in shards for v in values]
    assert merged.count == len(flat)
    assert merged.sum == pytest.approx(math.fsum(flat), abs=1e-6)
    if flat:
        assert merged.min == min(flat)
        assert merged.max == max(flat)
        # Under reservoir capacity the merge is lossless, so quantiles
        # are exact: every reservoir value is a real observation.
        assert sorted(merged.samples()) == sorted(flat)
    else:
        assert merged.samples() == ()


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
