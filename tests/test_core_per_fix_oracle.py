"""The equivalence matrix of the Figure-2 real-time layer.

Each example draws one stream — the tier-1 fleet plus a trawler, or a
``tests/plants.py`` hostile stream — and one chunking of it into polls,
and runs the polls in lockstep, CEP trained, through every composition
of ``tests.conftest.COMPOSITIONS`` and beside the per-fix oracle of
each: ``tests/oracles/per_fix_layer.py``, the loop ``repro.core.realtime``
used to run, one fix at a time through the public per-fix stage APIs.
After every poll, every cell must

* reproduce its oracle (:func:`assert_reproduces`): value, key and order
  per topic partition, the payload ``==`` skips (``detail``), where
  ingest stamps are set, every report and quality counter, the carried
  per-entity state of in-process replicas and how often each replica
  observed each entity stage;
* keep the conservation laws (:func:`assert_conserves`), the dashboard's
  counts among them;

and the cells must agree with each other (:func:`assert_cells_agree`)
where the oracle cannot see: it merges shard outputs and orders the
global half's input with the layer's own ``merge_shard_outputs``, so a
broken merge would pass it. Every composition feeds the global stages
one order, so every cell's report is plain's.
"""

from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cep import symbol_sequence, turn_event_stream
from repro.core import (
    ALL_TOPICS,
    RealtimeLayer,
    ShardedRealtimeLayer,
    SystemConfig,
    TOPIC_CLEAN,
    TOPIC_EVENTS,
    TOPIC_LINKS,
    TOPIC_RAW,
    TOPIC_SYNOPSES,
)
from repro.core.realtime import _COLUMNS_MIN_ROWS, EntityStages
from repro.datasources import AISSimulator, fishing_vessel_stream
from repro.synopses import CriticalPoint, SynopsesConfig, SynopsesGenerator

from tests.conftest import COMPOSITIONS
from tests.oracles.per_fix_layer import PerFixLayer
from tests.plants import CROWD, chunks, planted_stream, report

#: Loose proximity and fast re-emission, so every topic carries records.
CFG = SystemConfig(synopses=SynopsesConfig(min_reemit_s=30.0), proximity_space_m=500_000.0, proximity_time_s=3600.0)
#: A small gazetteer for the hostile streams.
SMALL = replace(CFG, n_regions=12, n_ports=6)
#: The per-entity stages: observed once per run on each replica.
ENTITY_STAGES = ("clean", "area_events", "synopses", "link_discovery")


def canonical(record):
    """A record as comparable text: NaN timestamps equal themselves, and
    nothing ``==`` skips (detail, annotations) is skipped."""
    value = record.value
    if isinstance(value, CriticalPoint):
        value = (value.fix, value.kind, value.detail)
    return repr(record.t), record.key, repr(value), record.ingest_wall_s is None


def partitions(broker, earlier=None):
    """Every topic partition of ``broker`` as comparable text. Logs are
    append-only, so given ``earlier`` (its partitions as read before),
    only the records appended since are read."""
    out = {}
    for name in ALL_TOPICS:
        topic = broker.topic(name)
        for partition in range(topic.partitions):
            text = earlier[name, partition] if earlier else []
            out[name, partition] = text + [canonical(r) for r in topic.read_records(partition, len(text))[1]]
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


def reached(before, replicas):
    """The entity-stage observations one poll makes on ``replicas`` (the
    oracle's, whose tallies were ``before``): one per replica and stage
    its share of the poll reached — cleaning its fixes, area events its
    clean fixes, link discovery its critical points — and synopses, which
    flushes, on every replica."""
    out = Counter()
    for was, replica in zip(before, replicas):
        new = replica.counts - was
        out.update(
            clean=new["raw_fixes"] > 0, area_events=new["clean_fixes"] > 0,
            synopses=1, link_discovery=new["critical_points"] > 0,
        )
    return out


def assert_reproduces(layer, got, oracle, want, batches):
    """The cell after a poll against its oracle after the same poll;
    ``got`` and ``want`` are their brokers' partitions, ``batches`` the
    :func:`reached` observations of every poll so far."""
    assert repr(layer.report) == repr(oracle.report)   # repr: a NaN-proof ==, quality included
    assert got == want
    replicas = layer.shards if isinstance(layer, ShardedRealtimeLayer) else [layer]
    assert [*map(entity_state, replicas)] == [*map(entity_state, oracle.replicas)][: len(replicas)]
    ops = layer.metrics.counters("op.")
    assert {stage: ops.get(f"op.{stage}.batches", 0) for stage in ENTITY_STAGES} == {
        stage: batches[stage] for stage in ENTITY_STAGES
    }


#: The critical-point kinds the dashboard lists as events.
DASHBOARD_EVENTS = ("gap_start", "stop_start", "turn")


def assert_conserves(layer):
    """What a cell's own registry and topics must say of each other."""
    report, topic = layer.report, layer.broker.topic
    assert report.raw_fixes == report.clean_fixes + report.quality.dropped
    counts = report.raw_fixes, report.clean_fixes, report.critical_points, report.links, report.cep_detections
    names = TOPIC_RAW, TOPIC_CLEAN, TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS
    assert counts == tuple(topic(name).size() for name in names)
    synopses = topic(TOPIC_SYNOPSES)
    synopses = [record for p in range(synopses.partitions) for record in synopses.read_records(p, 0)[1]]
    # Every point is found at a fix of its own poll, so every one is stamped.
    assert layer.metrics.histogram("e2e.record_latency_s").count == report.critical_points
    # The one dashboard, fed by the global half: every clean fix, every
    # critical point, every CEP detection as an alert, and as events the
    # alerts and the points of the kinds it lists.
    events = sum(record.value.kind in DASHBOARD_EVENTS for record in synopses) + report.cep_detections
    dashboard = {
        "positions": report.clean_fixes, "synopses": report.critical_points,
        "alerts": report.cep_detections, "events": events,
    }
    counted = {name: n for name, n in layer.metrics.counters("dashboard.").items() if n}
    assert counted == {f"dashboard.{name}": n for name, n in dashboard.items() if n}
    if not isinstance(layer, ShardedRealtimeLayer):
        return
    counters, parts = layer.metrics.counters(), Counter()
    for name, value in counters.items():
        head, _, rest = name.partition(".")
        shard, _, family = rest.partition(".")
        if head == "shard" and shard.isdigit():
            parts[family] += value
    assert parts == {family: counters[family] for family in parts}   # merged = Σ shard.<i>.<family>
    assert not [family for family in parts if family.startswith("dashboard.")]
    for i, replica in enumerate(layer.shards):
        for name, value in replica.metrics.counters().items():
            assert counters.get(f"shard.{i}.{name}", 0) == value, (i, name)


def assert_cells_agree(cells, built, texts):
    """What the cells of one draw must say of each other after the same
    polls (``built``: the operator names each registered when built;
    ``texts``: their partitions): every report is plain's, and plain's
    counters are inline ``n_shards=1``'s. Every point is found at a fix
    of its own poll and carries its stamp, and the merge orders every
    clock, NaN included, so sharded topics are compared record for record
    on every draw."""

    def own_counters(layer):
        """The counters outside the ``shard.<i>.`` families, but for the
        entity stages' batches, which count replicas (checked against the
        oracle's :func:`reached`)."""
        counters = {name: n for name, n in layer.metrics.counters().items() if not name.startswith("shard.")}
        for stage in ENTITY_STAGES:
            counters.pop(f"op.{stage}.batches", None)
        return counters

    plain = cells["plain"]
    for layer in cells.values():
        assert repr(layer.report) == repr(plain.report)
    sharded = {name: layer for name, layer in cells.items() if isinstance(layer, ShardedRealtimeLayer)}
    # A sharded cell's operator names are those it registered when built
    # and, as the fold registers a merged name when it first counts, those
    # plain has counted: entity-stage counts are key-local.
    counted = {name for name, n in plain.metrics.counters("op.").items() if n}
    inline = {layer.n_shards: name for name, layer in sharded.items() if not layer.use_worker_pool}
    single, want = own_counters(cells[inline[1]]), texts[inline[1]]
    counted_by_plain = {name: n for name, n in own_counters(plain).items() if n}
    assert {name: single.get(name) for name in counted_by_plain} == counted_by_plain
    for name, layer in sharded.items():
        assert layer.metrics.counters("op.").keys() == built[name] | counted
        assert texts[name] == want
        if layer.use_worker_pool:
            assert layer.metrics.counters() == cells[inline[layer.n_shards]].metrics.counters()
        else:
            assert own_counters(layer) == single


class Planted(NamedTuple):
    """A hostile stream over ``CROWD``: ``rounds`` rounds in which every
    entity cruises one report, with each ``(at, report)`` plant inserted
    at ``at``, modulo the length so far."""

    rounds: int
    plants: tuple = ()

    def fixes(self):
        reports = [(eid, "cruise", 1) for _ in range(self.rounds) for eid in sorted(CROWD)]
        for at, plant in self.plants:
            reports.insert(at % (len(reports) + 1), plant)
        return planted_stream(reports, SMALL.synopses, CROWD)


def verbatim(reports):
    """The plants that lay ``reports`` out in order, with no cruise rounds."""
    return Planted(0, tuple(enumerate(reports)))


#: The tier-1 fleet plus a trawler rich in turns, on the full gazetteer.
TIER1 = "tier1"
#: A drawn stream: 13 draws in 22 the plants alone (every poll per fix),
#: 8 the plants dropped into long cruises (polls on the column side of
#: every shard of three), 1 the tier-1 stream.
STREAMS = st.integers(0, 21).flatmap(
    lambda k: st.just(TIER1) if k == 21 else st.builds(
        Planted,
        st.just(0 if k < 13 else 2 * _COLUMNS_MIN_ROWS),
        st.lists(st.tuples(st.integers(0, 10_000), report(CROWD)), max_size=40).map(tuple),
    )
)
#: A chunking: cut positions as fractions of the stream's length.
CUTS = st.lists(st.fractions(0, 1, max_denominator=64), max_size=4).map(tuple)


def evenly(n_polls):
    return tuple(Fraction(i, n_polls) for i in range(1, n_polls))


_CRUISE = [(eid, "cruise", 1) for _ in range(60) for eid in sorted(CROWD)]   # 300 reports
_BAD_CLOCKS = tuple((41 * k, (eid, "bad_clock", k % 3)) for k, eid in enumerate(sorted(CROWD) * 6))


@cache
def tier1_fleet():
    return list(AISSimulator(n_vessels=10, seed=5).fixes(900.0))


@cache
def tier1():
    trawler = fishing_vessel_stream(seed=21, duration_s=6 * 3600.0, report_period_s=20.0)
    return sorted([*tier1_fleet(), *trawler], key=lambda fix: fix.t)


@cache
def symbols():
    gen = SynopsesGenerator(CFG.synopses)
    train = fishing_vessel_stream(seed=9, duration_s=8 * 3600.0, report_period_s=20.0)
    return symbol_sequence(turn_event_stream([*gen.process_stream(train), *gen.flush()]))


class TestEquivalenceMatrix:
    @settings(max_examples=44, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS, cuts=CUTS, lazy=st.booleans())
    @example(stream=TIER1, cuts=(), lazy=False)
    @example(stream=TIER1, cuts=evenly(3), lazy=False)
    @example(stream=TIER1, cuts=evenly(17), lazy=False)
    # empty polls before any fix, and after some: no flush tail at all
    @example(stream=verbatim(_CRUISE), cuts=(0, 1, 1), lazy=False)
    # a poll cleaning drops whole, between two it does not
    @example(stream=verbatim(_CRUISE[:200] + [("mid", "off_range", 0)] * 50 + _CRUISE[200:]),
             cuts=(Fraction(200, 350), Fraction(250, 350)), lazy=False)
    @example(stream=verbatim(_CRUISE), cuts=evenly(2), lazy=True)   # generator input
    @example(stream=verbatim([("mid", "cruise", 1), ("mid", "turn", 2)] * 60), cuts=evenly(3), lazy=False)
    # NaN and ±inf clocks, on both sides of the column crossover
    @example(stream=Planted(2 * _COLUMNS_MIN_ROWS, _BAD_CLOCKS), cuts=evenly(2), lazy=False)
    # an entity whose last fix came in an earlier poll: it is not ended
    # again, so the replies that carry none of its fixes carry no point of it
    @example(stream=verbatim(_CRUISE[:100] + [r for r in _CRUISE[100:] if r[0] != "eq"]),
             cuts=(Fraction(100, 260),), lazy=False)
    def test_every_composition_agrees_after_every_poll(self, stream, cuts, lazy):
        cfg, fixes = (CFG, tier1()) if stream == TIER1 else (SMALL, stream.fixes())
        polls = chunks(fixes, [int(cut * len(fixes)) for cut in cuts])
        shard_counts = {fields.get("n_shards") for fields in COMPOSITIONS.values()}
        oracles = {n: PerFixLayer(cfg, n, symbols()) for n in shard_counts}
        with ExitStack() as stack:
            cells = {
                name: stack.enter_context(
                    (ShardedRealtimeLayer if fields else RealtimeLayer)(replace(cfg, **fields), symbols())
                )
                for name, fields in COMPOSITIONS.items()
            }
            built = {name: layer.metrics.counters("op.").keys() for name, layer in cells.items()}
            got, want, batches = {}, {}, {n: Counter() for n in oracles}
            for n_polls, poll in enumerate(polls, start=1):
                # Each poll's records are read once; the last poll rereads
                # them all, in case a later poll changed one published earlier.
                last = n_polls == len(polls)
                for n, oracle in oracles.items():
                    before = [Counter(replica.counts) for replica in oracle.replicas]
                    oracle.run(poll)
                    batches[n] += reached(before, oracle.replicas)
                    want[n] = partitions(oracle.broker, None if last else want.get(n))
                for name, fields in COMPOSITIONS.items():
                    layer = cells[name]
                    layer.run((fix for fix in poll) if lazy else poll)
                    got[name] = partitions(layer.broker, None if last else got.get(name))
                    n = fields.get("n_shards")
                    assert_reproduces(layer, got[name], oracles[n], want[n], batches[n])
                    assert_conserves(layer)
                assert_cells_agree(cells, built, got)
            if stream == TIER1:   # not vacuous: every topic and every global stage fired
                for layer in cells.values():
                    report = layer.report
                    assert report.links > report.proximity_links > 0 and report.cep_detections > 0


class TestOneGlobalOrder:
    def test_a_flush_point_older_than_the_polls_last_point_keeps_its_links(self):
        """``mid`` cruises 5 reports beside ``mid2``, which cruises 20 and
        turns at its 15th, in one poll with a 60 s proximity window: taken
        in arrival order, ``mid2``'s turn would evict ``mid2``'s start point
        before ``mid``'s flush-tail end point, 40 s after it, could link
        to it. Every composition orders the points by ``(t, key)`` first
        and finds both links."""
        reports = [("mid", "cruise", 1)] * 5 + [("mid2", "cruise", 1)] * 14 + [("mid2", "turn", 2)]
        cfg = replace(SMALL, proximity_time_s=60.0)
        fixes = planted_stream(reports + [("mid2", "cruise", 1)] * 5, cfg.synopses, CROWD)
        want = PerFixLayer(cfg).run(fixes)
        assert want.proximity_links == 2
        with ExitStack() as stack:
            for name, fields in COMPOSITIONS.items():
                layer = stack.enter_context(
                    (ShardedRealtimeLayer if fields else RealtimeLayer)(replace(cfg, **fields))
                )
                assert repr(layer.run(fixes)) == repr(want), name


#: Every composition, and the per-fix oracle of both kinds.
EVERY_LAYER = [*COMPOSITIONS, "per-fix", "per-fix n_shards=3"]


def build(name, cfg):
    if name.startswith("per-fix"):
        return nullcontext(PerFixLayer(cfg, 3 if name.endswith("3") else None))
    fields = COMPOSITIONS[name]
    return (ShardedRealtimeLayer if fields else RealtimeLayer)(replace(cfg, **fields))


def published(broker, name, seen):
    """The records of topic ``name`` published since ``seen`` (partition ->
    offset, advanced here)."""
    topic, out = broker.topic(name), []
    for partition in range(topic.partitions):
        records = topic.read_records(partition, seen.get((name, partition), 0))[1]
        seen[name, partition] = seen.get((name, partition), 0) + len(records)
        out += records
    return out


class TestOneEndPerTrajectory:
    """A poll boundary does not end a trajectory: an entity with no fix in
    a poll gets no point in it, ``end`` included."""

    @pytest.mark.parametrize("name", EVERY_LAYER)
    def test_every_point_of_a_poll_wraps_one_of_its_clean_fixes(self, name):
        """``eq`` goes idle after the first poll, ``mid`` and ``mid2``
        after the second; nothing they did is published again."""
        first = _CRUISE[:100]
        second = [r for r in _CRUISE[100:180] if r[0] != "eq"]
        third = [r for r in _CRUISE[180:] if r[0] in ("am", "np")]
        fixes = verbatim(first + second + third).fixes()
        polls = chunks(fixes, [len(first), len(first) + len(second)])
        seen = {}
        with build(name, SMALL) as layer:
            for poll in polls:
                layer.run(poll)
                clean = {(record.key, record.t) for record in published(layer.broker, TOPIC_CLEAN, seen)}
                points = [record.value for record in published(layer.broker, TOPIC_SYNOPSES, seen)]
                assert {cp.entity_id for cp in points if cp.kind == "end"} == {key for key, _ in clean}
                assert [cp for cp in points if (cp.entity_id, cp.t) not in clean] == []

    @pytest.mark.parametrize("name", EVERY_LAYER)
    def test_idle_neighbours_are_linked_in_their_own_poll_only(self, name):
        """``mid`` and ``mid2`` cruise side by side in the first poll; the
        later polls carry only ``eq``, thousands of kilometres away."""
        pair = [(eid, "cruise", 1) for _ in range(10) for eid in ("mid", "mid2")]
        far = [("eq", "cruise", 1)] * 10
        fixes = verbatim(pair + far * 3).fixes()
        with build(name, SMALL) as layer:
            linked = layer.run(fixes[: len(pair)]).proximity_links
            assert linked > 0
            for k in range(3):
                start = len(pair) + k * len(far)
                assert layer.run(fixes[start : start + len(far)]).proximity_links == linked


class TestNoPerFixObservation:
    """Structural pin: what the layer observes scales with runs, not fixes."""

    @pytest.mark.parametrize("cls", [EntityStages, RealtimeLayer])
    def test_each_stage_is_observed_once_per_run(self, cls):
        layer, fleet = cls(SMALL), tier1_fleet()
        for k, poll in enumerate(chunks(fleet, [len(fleet) * i // 5 for i in range(1, 5)]), start=1):
            report = layer.run(poll)
            counters = layer.metrics.counters("op.")
            assert {counters[f"op.{stage}.batches"] for stage in ENTITY_STAGES} == {k}
            assert all(layer.metrics.histogram(f"op.{stage}.latency_s").count == k for stage in ENTITY_STAGES)
        entity_links = report.links - report.proximity_links
        want = {
            "clean": (report.raw_fixes, report.clean_fixes),
            "area_events": (report.clean_fixes, report.area_events),
            "synopses": (report.clean_fixes, report.critical_points),
            "link_discovery": (report.critical_points, entity_links),
        }
        got = {
            stage: (counters[f"op.{stage}.records_in"], counters.get(f"op.{stage}.records_out", 0))
            for stage in ENTITY_STAGES
        }
        assert got == want
        assert layer.metrics.counter("stage.raw.records").value == report.raw_fixes == len(fleet)
        assert "realtime.fix_latency_s" not in layer.metrics.snapshot()["histograms"]

    def test_failed_run_publishes_nothing_and_counts_nothing(self):
        """Commit at the end: a run that raises in cleaning leaves topics,
        report, counters and the downstream stages' state as they were."""
        layer, fleet = RealtimeLayer(SMALL), tier1_fleet()
        layer.run(fleet[:300])
        before = partitions(layer.broker), repr(layer.report), layer.metrics.counters()
        seen = layer.synopses.points_in
        with pytest.raises(TypeError):
            layer.run([*fleet[300:500], replace(fleet[500], lon=None)])
        assert (partitions(layer.broker), repr(layer.report), layer.metrics.counters()) == before
        assert layer.synopses.points_in == seen
        layer.run(fleet[300:500])
        assert layer.report.raw_fixes == 500 == layer.metrics.counter("stage.raw.records").value

    @pytest.mark.parametrize("field", ["t", "lon", "alt", "speed"])
    @pytest.mark.parametrize("value", [None, "7.0", Decimal(7), 7, float("nan")])
    def test_a_poll_the_screens_cannot_read_is_the_per_fix_run(self, field, value):
        """A poll big enough for columns with one field that is no float:
        the run raises what the per-fix oracle raises (and then publishes
        nothing), or produces what it produces — never a numpy error."""
        fleet = tier1_fleet()
        assert len(fleet) >= 2 * _COLUMNS_MIN_ROWS
        poll = [*fleet[:400], replace(fleet[400], **{field: value}), *fleet[401:]]
        layer, oracle = RealtimeLayer(SMALL), PerFixLayer(SMALL)
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
