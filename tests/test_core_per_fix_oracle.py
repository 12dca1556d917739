"""The stage-at-a-time Figure-2 layers against the per-fix oracle.

``tests/oracles/per_fix_layer.py`` is the loop ``repro.core.realtime``
used to run — one fix at a time through the public per-fix stage APIs,
one publish per record. Every composition of the real layer must
reproduce it record for record: value, key and order per topic
partition, the payload ``==`` skips (``detail``), where ingest stamps
are set, and every report and quality counter.
"""

from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cep import symbol_sequence, turn_event_stream
from repro.core import ALL_TOPICS, RealtimeLayer, ShardedRealtimeLayer, SystemConfig, TOPIC_EVENTS, TOPIC_LINKS
from repro.core.realtime import _COLUMNS_MIN_ROWS, EntityStages
from repro.datasources import AISSimulator, fishing_vessel_stream
from repro.geo import PositionFix
from repro.synopses import CriticalPoint, SynopsesConfig, SynopsesGenerator

from tests.oracles.per_fix_layer import PerFixLayer
from tests.plants import ENTITIES, REPORT, planted_stream

#: Loose proximity and fast re-emission, so every topic carries records.
CFG = SystemConfig(synopses=SynopsesConfig(min_reemit_s=30.0), proximity_space_m=500_000.0, proximity_time_s=3600.0)
#: A small gazetteer for the many-layer property runs.
SMALL = replace(CFG, n_regions=12, n_ports=6)

#: name -> (layer config, the oracle's n_shards)
COMPOSITIONS = {
    "plain": ({}, None),
    "n_shards=1": ({"n_shards": 1}, 1),
    "n_shards=3": ({"n_shards": 3}, 3),
    "pooled": ({"n_shards": 3, "worker_pool": True}, 3),
}


def build(cfg, name, symbols=None):
    fields, oracle_shards = COMPOSITIONS[name]
    cls = ShardedRealtimeLayer if fields else RealtimeLayer
    return cls(replace(cfg, **fields), cep_training_symbols=symbols), PerFixLayer(cfg, oracle_shards, symbols)


def canonical(record):
    """A record as comparable text: NaN timestamps equal themselves, and
    nothing ``==`` skips (detail, annotations) is skipped."""
    value = record.value
    if isinstance(value, CriticalPoint):
        value = (value.fix, value.kind, value.detail)
    return repr(record.t), record.key, repr(value), record.ingest_wall_s is None


def partitions(broker):
    out = {}
    for name in ALL_TOPICS:
        topic = broker.topic(name)
        for partition in range(topic.partitions):
            out[name, partition] = [canonical(r) for r in topic.read_records(partition, 0)[1]]
    return out


def entity_state(stages):
    """What the per-entity stages carry from run to run, as comparable
    text: the generator's and the area detector's per-entity state (key
    order included) and their counters."""
    synopses, areas = stages.synopses, stages.area_detector
    return (
        repr(synopses._states), synopses.points_in, synopses.points_out, synopses.noise_dropped,
        repr(areas._states),
    )


def assert_reproduces_the_oracle(cfg, name, polls, symbols=None):
    """Run ``polls`` through composition ``name`` and its oracle; compare
    topics, counters and — where the replicas are in this process — the
    carried per-entity state after every run. ``polls`` are factories, so
    each side gets its own iterable (a generator can be handed over once)."""
    layer, oracle = build(cfg, name, symbols)
    replicas = [layer] if isinstance(layer, RealtimeLayer) else layer.shards
    with layer:
        for poll in polls:
            got, want = layer.run(poll()), oracle.run(poll())
            assert repr(got) == repr(want), name   # repr: a NaN-proof ==, quality included
            assert partitions(layer.broker) == partitions(oracle.broker), name
            assert [*map(entity_state, replicas)] == [*map(entity_state, oracle.replicas)][: len(replicas)], name
            dashboard = layer.metrics.counters("dashboard.")
            assert dashboard.get("dashboard.positions", 0) == got.clean_fixes, name
            assert dashboard.get("dashboard.synopses", 0) == got.critical_points, name
    return layer


def chunked(stream, n_polls):
    bounds = [len(stream) * i // n_polls for i in range(n_polls + 1)]
    return [lambda a=a, b=b: stream[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.fixture(scope="module")
def fleet():
    return list(AISSimulator(n_vessels=10, seed=5).fixes(900.0))


@pytest.fixture(scope="module")
def stream(fleet):
    """The tier-1 fleet plus a trawler rich in turns, time-ordered."""
    trawler = fishing_vessel_stream(seed=21, duration_s=6 * 3600.0, report_period_s=20.0)
    return sorted([*fleet, *trawler], key=lambda fix: fix.t)


@pytest.fixture(scope="module")
def symbols():
    gen = SynopsesGenerator(CFG.synopses)
    train = fishing_vessel_stream(seed=9, duration_s=8 * 3600.0, report_period_s=20.0)
    return symbol_sequence(turn_event_stream([*gen.process_stream(train), *gen.flush()]))


@pytest.mark.parametrize("name", list(COMPOSITIONS))
class TestPerFixOracle:
    @pytest.mark.parametrize("n_polls", [1, 3, 17])
    def test_tier1_stream_in_polls(self, stream, symbols, name, n_polls):
        layer = assert_reproduces_the_oracle(CFG, name, chunked(stream, n_polls), symbols)
        report = layer.report
        # The comparison is not vacuous: every topic and every global stage fired.
        assert report.links > report.proximity_links > 0 and report.cep_detections > 0
        assert layer.broker.topic(TOPIC_EVENTS).size() == report.cep_detections
        assert layer.broker.topic(TOPIC_LINKS).size() == report.links

    def test_empty_runs(self, fleet, name):
        """Before any fix (nothing at all) and after some (flush tails only)."""
        polls = [list, lambda: fleet[:400], list, list]
        layer = assert_reproduces_the_oracle(SMALL, name, polls)
        assert layer.report.raw_fixes == 400

    def test_run_whose_every_fix_is_dropped(self, fleet, name):
        junk = [replace(fix, lat=95.0) for fix in fleet[400:450]]
        layer = assert_reproduces_the_oracle(SMALL, name, [lambda: fleet[:400], lambda: junk, lambda: fleet[450:600]])
        assert layer.report.quality.dropped >= 50

    def test_generator_input(self, fleet, name):
        polls = [lambda: (fix for fix in fleet[:300]), lambda: iter(fleet[300:700])]
        assert_reproduces_the_oracle(SMALL, name, polls)

    def test_single_entity_stream(self, fleet, name):
        one = [fix for fix in fleet if fix.entity_id == fleet[0].entity_id]
        layer = assert_reproduces_the_oracle(SMALL, name, chunked(one, 3))
        assert layer.report.clean_fixes > 0 and layer.report.proximity_links == 0


#: One hostile report: (entity, time step, lon, lat) — zero and negative
#: steps make duplicate and regressing timestamps, NaN a poisoned clock,
#: lat 95 / lon 200 are out of range, and a 400 s step opens a gap.
_REPORT = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([-60.0, 0.0, 0.0, 10.0, 10.0, 30.0, 400.0, float("nan")]),
    st.sampled_from([9.0, 9.001, 9.002, 9.5, 200.0]),
    st.sampled_from([37.0, 37.001, 37.4, 95.0]),
)


def hostile_stream(reports):
    """Each NaN timestamp is a float of its own: cleaning lets NaN through,
    and the ``(t, key)`` merge then orders equal-looking NaNs by object
    identity — which a fix that crossed a process boundary does not keep."""
    t, fixes = 1000.0, []
    for entity, step, lon, lat in reports:
        if step == step:
            t += step
        fixes.append(PositionFix(entity, t if step == step else float("nan"), lon=lon, lat=lat, speed=5.0, heading=90.0))
    return fixes


def planted_polls(plants, n_polls):
    """A long cruise of every plant entity, round robin, with the drawn
    plants dropped into it: ``n_polls`` polls on the column side of the
    layer's crossover (every shard of three included) and a last one on
    the per-fix side."""
    reports = [(eid, "cruise", 1) for _ in range(2 * _COLUMNS_MIN_ROWS) for eid in sorted(ENTITIES)]
    for at, report in plants:
        reports.insert(at % len(reports), report)
    stream = planted_stream(reports, SMALL.synopses)
    tail = _COLUMNS_MIN_ROWS // 4
    return [*chunked(stream[:-tail], n_polls), lambda: stream[-tail:]]


_PLANTS = st.lists(st.tuples(st.integers(0, 10_000), REPORT), max_size=40)


class TestPerFixOracleProperty:
    @settings(max_examples=15, deadline=None)
    @given(plants=_PLANTS, n_polls=st.integers(1, 2))
    def test_planted_stream_in_process(self, plants, n_polls):
        for name in ("plain", "n_shards=1", "n_shards=3"):
            assert_reproduces_the_oracle(SMALL, name, planted_polls(plants, n_polls))

    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(plants=_PLANTS, n_polls=st.integers(1, 2))
    def test_planted_stream_pooled(self, plants, n_polls):
        assert_reproduces_the_oracle(SMALL, "pooled", planted_polls(plants, n_polls))

    @settings(max_examples=25, deadline=None)
    @given(reports=st.lists(_REPORT, max_size=40), n_polls=st.integers(1, 4))
    def test_hostile_stream_in_process(self, reports, n_polls):
        for name in ("plain", "n_shards=1", "n_shards=3"):
            assert_reproduces_the_oracle(SMALL, name, chunked(hostile_stream(reports), n_polls))

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(reports=st.lists(_REPORT, min_size=10, max_size=40), n_polls=st.integers(1, 3))
    def test_hostile_stream_pooled(self, reports, n_polls):
        assert_reproduces_the_oracle(SMALL, "pooled", chunked(hostile_stream(reports), n_polls))


class TestNoPerFixObservation:
    """Structural pin: what the layer observes scales with runs, not fixes."""

    STAGES = ("clean", "area_events", "synopses", "link_discovery")

    @pytest.mark.parametrize("cls", [EntityStages, RealtimeLayer])
    def test_each_stage_is_observed_once_per_run(self, fleet, cls):
        layer = cls(SMALL)
        for k, poll in enumerate(chunked(fleet, 5), start=1):
            report = layer.run(poll())
            counters = layer.metrics.counters("op.")
            assert {counters[f"op.{stage}.batches"] for stage in self.STAGES} == {k}
            assert all(layer.metrics.histogram(f"op.{stage}.latency_s").count == k for stage in self.STAGES)
        entity_links = report.links - report.proximity_links
        want = {
            "clean": (report.raw_fixes, report.clean_fixes),
            "area_events": (report.clean_fixes, report.area_events),
            "synopses": (report.clean_fixes, report.critical_points),
            "link_discovery": (report.critical_points, entity_links),
        }
        got = {
            stage: (counters[f"op.{stage}.records_in"], counters.get(f"op.{stage}.records_out", 0))
            for stage in self.STAGES
        }
        assert got == want
        assert layer.metrics.counter("stage.raw.records").value == report.raw_fixes == len(fleet)
        assert "realtime.fix_latency_s" not in layer.metrics.snapshot()["histograms"]

    def test_failed_run_publishes_nothing_and_counts_nothing(self, fleet):
        """Commit at the end: a run that raises in cleaning leaves topics,
        report, counters and the downstream stages' state as they were."""
        layer = RealtimeLayer(SMALL)
        layer.run(fleet[:300])
        before = partitions(layer.broker), repr(layer.report), layer.metrics.counters()
        seen = layer.synopses.points_in
        with pytest.raises(TypeError):
            layer.run([*fleet[300:500], replace(fleet[500], lon=None)])
        assert (partitions(layer.broker), repr(layer.report), layer.metrics.counters()) == before
        assert layer.synopses.points_in == seen
        layer.run(fleet[300:500])
        assert layer.report.raw_fixes == 500 == layer.metrics.counter("stage.raw.records").value

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field", ["t", "lon", "alt", "speed"])
    @pytest.mark.parametrize("value", [None, "7.0", Decimal(7), 7, float("nan")])
    def test_a_poll_the_screens_cannot_read_is_the_per_fix_run(self, fleet, field, value):
        """A poll big enough for columns with one field that is no float:
        the run raises what the per-fix oracle raises (and then publishes
        nothing), or produces what it produces — never a numpy error."""
        assert len(fleet) >= 2 * _COLUMNS_MIN_ROWS
        poll = [*fleet[:400], replace(fleet[400], **{field: value}), *fleet[401:]]
        layer, oracle = build(SMALL, "plain")
        try:
            want = oracle.run(poll)
        except TypeError as exc:
            with pytest.raises(TypeError) as raised:
                layer.run(poll)
            assert str(raised.value) == str(exc)
            assert layer.report.raw_fixes == 0 and not any(layer.metrics.counters("op.").values())
        else:
            assert repr(layer.run(poll)) == repr(want)
            assert partitions(layer.broker) == partitions(oracle.broker)
