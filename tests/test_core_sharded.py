"""Tests for the sharded real-time layer (repro.core.sharded).

What each composition outputs, and that the compositions agree, is the
equivalence matrix's (``tests/test_core_per_fix_oracle.py``): every
composition against the per-fix oracle and the conservation laws after
every poll. Here is what only a sharded layer has: its shard gauges,
events, traces and export, the pool's hosts and their failures and
restarts, and the replica's frames at the process boundary.
"""

from collections import Counter
from dataclasses import fields, replace

import multiprocessing

import pytest

from repro.core import (
    ALL_TOPICS,
    DatacronSystem,
    RealtimeReport,
    ShardedRealtimeLayer,
    SystemConfig,
    TOPIC_CLEAN,
    TOPIC_EVENTS,
    TOPIC_RAW,
    TOPIC_SYNOPSES,
)
from repro.core.frames import decode_reply, encode_request
from repro.core.realtime import EntityStages, report_from
from repro.core.sharded import _RealtimeShardSpec
from repro.datasources import AISSimulator
from repro.geo import FixColumns
from repro.insitu import ALL_ISSUES, QualityReport
from repro.obs import MetricsRegistry, fold_harvests
from repro.streams import Record, ShardWorkerError, WorkerHost
from repro.streams.workers import InlineHost
from tests.conftest import COMPOSITIONS, DEPLOYED
from tests.plants import chunks


@pytest.fixture(scope="module")
def fixes():
    return list(AISSimulator(n_vessels=10, seed=5).fixes(900.0))


def dump_consumers(layer):
    return {name: layer.broker.consumer(name, "test-dump") for name in ALL_TOPICS}


def drain(consumers):
    """What each topic's consumer has not seen yet, in delivery order."""
    out = {}
    for name, consumer in consumers.items():
        records = []
        while True:
            batch = consumer.poll()
            if not batch:
                break
            records.extend(batch)
        out[name] = records
    return out


def published_by(layer):
    """A reader of what ``layer`` publishes: each call returns the records
    each topic was handed since the previous call, in publish order."""
    seen = {name: [] for name in ALL_TOPICS}
    publish = layer.broker.publish_many

    def recorded(name, records):
        seen[name].extend(records)
        return publish(name, records)

    def read():
        out = {name: list(records) for name, records in seen.items()}
        for records in seen.values():
            records.clear()
        return out

    layer.broker.publish_many = recorded
    return read


def summed(reports):
    """Every field of ``reports`` added up, quality included."""
    names = [f.name for f in fields(RealtimeReport) if f.name != "quality"]
    counts = {name: sum(getattr(r, name) for r in reports) for name in names}
    seen, passed = sum(r.quality.seen for r in reports), sum(r.quality.passed for r in reports)
    flagged = sum((Counter(r.quality.flagged) for r in reports), Counter())
    return RealtimeReport(**counts, quality=QualityReport(seen, passed, dict(flagged)))


def assert_same_records(got, want):
    """Full ``Record`` equality per topic, plus what ``==`` skips on
    purpose: the ``compare=False`` payload must match and every record
    derived from a fix must carry its ingest stamp."""
    for name in ALL_TOPICS:
        assert got[name] == want[name], name
        for attr in ("annotations", "detail"):
            assert [getattr(r.value, attr, None) for r in got[name]] == [
                getattr(r.value, attr, None) for r in want[name]
            ], (name, attr)
        assert [r.ingest_wall_s is None for r in got[name]] == [
            r.ingest_wall_s is None for r in want[name]
        ], name
    for name in (TOPIC_RAW, TOPIC_CLEAN):
        assert all(r.ingest_wall_s is not None for r in got[name]), name


class TestShardEquivalence:
    def test_rejects_zero_shards(self):
        for n_shards in (0, -3):
            with pytest.raises(ValueError, match="at least one shard"):
                ShardedRealtimeLayer(SystemConfig(n_shards=n_shards))


class TestThreeCompositions:
    """Every composition is one ``EntityStages`` per replica and one
    ``GlobalStages``; the replica alone holds no global stage."""

    def test_entity_stages_alone_have_no_global_half(self, fixes):
        stages = EntityStages(SystemConfig())
        assert stages.run(fixes[:500]).critical_points > 0
        assert not {"dashboard", "health", "proximity", "cep"} & set(vars(stages))
        # The report reads the global stages' counters as zero, creating none.
        counters = stages.metrics.counters()
        assert stages.report.proximity_links == stages.report.cep_detections == 0
        assert stages.metrics.counters() == counters
        assert stages.broker.topic(TOPIC_EVENTS).size() == 0


class TestShardObservability:
    def test_shard_gauges_registered(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        sharded.run(list(fixes))
        gauges = sharded.metrics.gauges("shard.")
        # One name per shard wall: the replica's own gauge, folded.
        assert all(gauges[f"shard.{i}.realtime.wall_s"] > 0.0 for i in range(3))
        assert [name for name in gauges if name.endswith(".wall_s")] == [f"shard.{i}.realtime.wall_s" for i in range(3)]
        assert gauges["shard.count"] == 3.0
        # Per-shard counts are the folded families, not gauges of their own.
        counters = sharded.metrics.counters("shard.")
        assert sum(counters[f"shard.{i}.stage.raw.records"] for i in range(3)) == len(fixes)
        assert not [name for name in gauges if name.endswith((".raw_fixes", ".clean_fixes"))]

    def test_balance_gauge_tracks_routing(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        assert sharded.balance() == 0.0  # nothing routed yet
        sharded.run(list(fixes))
        assert 1.0 <= sharded.balance() <= 3.0
        assert sharded.metrics.gauges("shard.")["shard.balance"] == sharded.balance()

    def test_system_metrics_includes_per_shard_view(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        snap = sharded.system_metrics()
        assert len(snap["shards"]) == 2
        assert {"health", "events", "operators"} <= snap.keys()
        assert sum(s["raw_fixes"] for s in snap["shards"]) == len(fixes)

    def test_drop_reasons_are_registry_counters(self, fixes):
        """What cleaning dropped and why is read from the registry, on every
        composition: one ``op.clean.flagged.<issue>`` counter per issue,
        and on the sharded ones the ``shard.<i>.`` families sum to it."""
        stream = list(fixes[:1200])
        for n, i in enumerate(range(0, len(stream), 50)):
            stream[i] = replace(stream[i], t=float("nan")) if n % 2 else replace(stream[i], lat=95.0)
        for name in DEPLOYED:
            knobs = COMPOSITIONS[name]
            with DatacronSystem(SystemConfig(**knobs)) as system:
                system.run(stream[:600])
                system.run(stream[600:])
                report = system.realtime.report
                counters = system.system_metrics()["counters"]
            flagged = {
                issue: counters[f"op.clean.flagged.{issue}"]
                for issue in ALL_ISSUES if f"op.clean.flagged.{issue}" in counters
            }
            assert flagged == report.quality.flagged, name
            assert flagged["non_finite_time"] == 12 and flagged["coord_out_of_range"] == 12, name
            if isinstance(system.realtime, ShardedRealtimeLayer):
                for issue, n in flagged.items():
                    parts = [counters.get(f"shard.{i}.op.clean.flagged.{issue}", 0) for i in range(knobs["n_shards"])]
                    assert sum(parts) == n, name

    def test_run_events_emitted(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        kinds = [e.kind for e in sharded.events.events() if e.component == "realtime"]
        assert "sharded_run_started" in kinds and "sharded_run_finished" in kinds


class TestHarvestFold:
    """The distributed obs plane over the Figure-2 shard replicas."""

    def test_e2e_record_latency_on_merged_stream(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        e2e = sharded.metrics.histogram("e2e.record_latency_s")
        assert e2e.count > 0
        assert 0.0 <= e2e.min and e2e.max < 60.0  # wall stamps, not event time

    def test_shard_events_merged_with_origin_tags(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        tagged = [e for e in sharded.events.events() if "shard" in e.tags]
        assert tagged
        assert {e.tags["shard"] for e in tagged} <= {0, 1}

    def test_shard_traces_hang_under_the_polls_shards_span(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(fixes[:900])
        sharded.run(fixes[900:])
        spans = sharded.tracer.spans()
        roots = [sp for sp in spans if sp.parent_id is None]
        assert [root.name for root in roots] == ["run", "run"]  # one root per poll
        for root in roots:
            [shards] = [sp for sp in spans if sp.parent_id == root.span_id and sp.name == "shards"]
            hung = [sp for sp in spans if sp.parent_id == shards.span_id]
            assert [(sp.name, sp.tags["shard"], sp.trace_id) for sp in hung] == [
                ("run", 0, root.trace_id), ("run", 1, root.trace_id),
            ]

    def test_export_carries_shard_labels_and_e2e(self, fixes):
        from repro.obs import parse_openmetrics, render_openmetrics

        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        families = parse_openmetrics(render_openmetrics(sharded.metrics.snapshot()))
        clean = families["shard_op_clean_records_in"]["samples"]
        merged = families["op_clean_records_in"]["samples"]["op_clean_records_in_total"]
        assert sum(clean.values()) == merged
        assert 'shard_op_clean_records_in_total{shard="0"}' in clean
        assert "e2e_record_latency_s" in families


class TestWorkerPoolLayer:
    """The pool-backed deployment: shard replicas hosted in long-lived
    worker processes (SystemConfig.worker_pool)."""

    def test_pool_records_ipc_cost_per_shard_and_run(self, fixes):
        from repro.obs import parse_openmetrics, render_openmetrics

        with ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=True)) as pooled:
            for chunk in chunks(fixes, [900, 1800]):
                pooled.run(chunk)
            snapshot = pooled.metrics.snapshot()
        for i in range(2):
            for leaf in ("req_bytes", "reply_bytes", "encode_s", "decode_s"):
                hist = snapshot["histograms"][f"shard.{i}.ipc_{leaf}"]
                assert hist["count"] == 3 and hist["min"] > 0
            # The worker's half: request decode, folded from each replica.
            assert snapshot["histograms"][f"shard.{i}.ipc.request_decode_s"]["count"] == 3
        families = parse_openmetrics(render_openmetrics(snapshot))
        samples = families["shard_ipc_req_bytes"]["samples"]
        assert samples['shard_ipc_req_bytes_count{shard="1"}'] == 3
        # In process nothing crosses a pipe, so nothing is decoded.
        in_process = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        in_process.run(fixes[:300])
        assert not [name for name in in_process.metrics.snapshot()["histograms"] if "ipc" in name]

    def test_failed_request_leaves_every_other_shard_in_step(self, fixes):
        """Regression: gather used to raise at the first failing shard and
        leave the later shards' replies unread in their pipes, so every
        following run decoded the *previous* run's frame for those shards.
        Shard 0 fails here on a fix that blows up in cleaning — before
        anything of that poll is published, so its replica is not left
        holding stray raw records — and every run after that must equal
        the in-process twin's, which went through the same scatter/gather
        minus the frames."""
        cfg = SystemConfig(n_shards=2, proximity_space_m=1.0)  # no cross-run links
        twin = ShardedRealtimeLayer(cfg)
        victim = next(f for f in fixes[700:] if twin.shard_for(f.entity_id) == 0)
        polls = [[*fixes[:700], replace(victim, lon=None)], fixes[700:1200], fixes[1200:1800]]
        with ShardedRealtimeLayer(replace(cfg, worker_pool=True)) as pooled:
            for layer in (pooled, twin):
                with pytest.raises(ShardWorkerError, match="TypeError") as err:
                    layer.run(polls[0])
                assert err.value.shard == 0
            pooled_new, twin_new = dump_consumers(pooled), dump_consumers(twin)
            for poll in polls[1:]:
                assert pooled.run(poll) == twin.run(poll)
                got = drain(pooled_new)
                assert_same_records(got, drain(twin_new))
                assert len(got[TOPIC_RAW]) == len(poll) and got[TOPIC_SYNOPSES]

    def test_restarted_shard_keeps_the_reports_counts(self, fixes):
        """Regression: the merged report used to be the sum of the
        replicas' own cumulative reports, so a replica rebuilt by a host
        restart rolled every count of its shard back. Counts live in the
        folded registry families now, which a restart does not touch
        (looped, not parametrised, so the test id stays stable)."""
        half = len(fixes) // 2
        for worker_pool in (False, True):
            with ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=worker_pool)) as layer:
                layer.run(fixes[:half])
                layer._hosts[0].restart()
                layer.run(fixes[half:])
                report, shards = layer.report, layer.shard_reports()
                # The host timed both builds of shard 0; the gauge reads it.
                setups = [layer.metrics.gauge(f"shard.{i}.setup_s").value() for i in range(2)]
                assert setups == layer.shard_setups(), worker_pool
            assert report.raw_fixes == layer.broker.topic(TOPIC_RAW).size() == len(fixes), worker_pool
            assert report.critical_points == layer.broker.topic(TOPIC_SYNOPSES).size(), worker_pool
            assert summed(shards) == report, worker_pool

    def test_config_knob_selects_the_pool(self, fixes):
        with ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=True)) as layer:
            assert layer.use_worker_pool
            assert len(layer._hosts) == 2 and all(host.alive() for host in layer._hosts)
            assert layer.shards == []  # the replicas live in the workers
            report = layer.run(list(fixes))
            assert report.raw_fixes == len(fixes)
            # What stays behind in a worker otherwise: its run wall, and
            # the replica's callback-backed gauges, shipped as plain floats.
            assert all(wall > 0.0 for wall in layer.shard_walls())
            published = layer.metrics.gauges("shard.")[f"shard.0.broker.topic.{TOPIC_RAW}.published"]
            assert published == layer.shard_reports()[0].raw_fixes > 0
        assert all(not host.alive() for host in layer._hosts)

    def test_default_stays_in_process(self):
        layer = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        assert not layer.use_worker_pool
        assert [type(shard) for shard in layer.shards] == [EntityStages] * 2
        layer.close()  # no-op in-process

    def test_in_process_layer_runs_no_frame_codec(self, fixes, monkeypatch):
        """worker_pool=False is an oracle *for* the frames only while it
        stays independent of them."""
        import repro.core.sharded as sharded

        def forbidden(*args, **kwargs):
            raise AssertionError("frame codec ran on the in-process path")

        for name in ("encode_request", "decode_request", "encode_reply", "decode_reply"):
            monkeypatch.setattr(sharded, name, forbidden)
        layer = ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=False))
        assert layer.run(list(fixes)[:300]).raw_fixes == 300

    def test_setup_reported_apart_from_walls_on_both_paths(self, fixes):
        cfg = SystemConfig(n_shards=2)
        oracle = ShardedRealtimeLayer(cfg)
        with ShardedRealtimeLayer(replace(cfg, worker_pool=True)) as pooled:
            chunk = list(fixes)[:200]
            oracle.run(chunk)
            pooled.run(chunk)
            for layer in (oracle, pooled):
                setups = layer.shard_setups()
                assert len(setups) == 2 and all(s > 0.0 for s in setups)
                # One clock per build, the host's: the gauge reads it.
                assert [layer.metrics.gauge(f"shard.{i}.setup_s").value() for i in range(2)] == setups


class TestShardFrames:
    """The pooled wire format at the replica boundary: one request frame
    in, one reply frame out, decoded against the caller's own fixes — and
    compared, record for record, with what a plain replica fed the same
    polls published."""

    CFG = SystemConfig()

    def serve(self, polls):
        """Per poll: (topics decoded from the reply, what the twin's run
        published)."""
        spec = _RealtimeShardSpec(self.CFG)
        replica = spec.setup(0)
        twin = EntityStages(self.CFG)
        published = published_by(twin)
        folded = MetricsRegistry()
        out = []
        for poll in polls:
            reply, topics = decode_reply(spec.handle(0, replica, encode_request(poll)), poll)
            twin.run(poll)
            # The reply's harvest is the only copy of the replica's counts.
            fold_harvests(folded, [reply.harvest])
            assert report_from(folded) == report_from(folded, "shard.0.") == twin.report
            out.append((topics, published()))
        return out

    def test_replies_equal_the_twin_and_reference_the_callers_fixes(self, fixes):
        polls = [fixes[:700], fixes[700:1500], fixes[1500:]]
        for poll, (got, want) in zip(polls, self.serve(polls)):
            assert_same_records(got, want)
            for name in (TOPIC_RAW, TOPIC_CLEAN):
                mine = {id(fix) for fix in poll}
                assert all(id(r.value) in mine for r in got[name])
            assert got[TOPIC_SYNOPSES]

    def test_worker_screens_the_frames_columns_and_rebuilds_no_fix(self, fixes, monkeypatch):
        """A request large enough to screen is decoded in one pass: the
        worker neither rebuilds columns from the decoded fixes nor copies
        a fix to attach its annotations."""
        import dataclasses

        import repro.core.frames as frames

        poll = fixes[:600]
        assert len(poll) >= 2 * len({f.entity_id for f in poll})
        spec = _RealtimeShardSpec(self.CFG)
        replica, frame = spec.setup(0), encode_request(poll)
        calls = []

        def counted(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        monkeypatch.setattr(FixColumns, "of", counted("FixColumns.of", FixColumns.of))
        replace_counted = counted("replace", dataclasses.replace)
        monkeypatch.setattr(dataclasses, "replace", replace_counted)
        monkeypatch.setattr(frames, "replace", replace_counted, raising=False)
        reply, _ = decode_reply(spec.handle(0, replica, frame), poll)
        assert reply.harvest.metrics.counters["stage.raw.records"] == len(poll)
        assert calls == []

    def test_a_request_that_raises_leaves_the_worker_serving_its_own_rows(self, fixes):
        """A request that blows up mid-run comes back as a
        ``ShardWorkerError`` with the worker still serving. The run
        published nothing — a run commits only once every stage has its
        output — so the next reply is exactly its own rows, under one stamp."""
        host = WorkerHost(_RealtimeShardSpec(self.CFG), 0)
        try:
            poison = replace(fixes[300], lon=None)
            with pytest.raises(ShardWorkerError, match="TypeError"):
                host.request(encode_request([*fixes[:300], poison]))
            assert host.alive()
            poll = fixes[300:400]
            reply, topics = decode_reply(host.request(encode_request(poll)), poll)
            assert [r.value for r in topics[TOPIC_RAW]] == poll
            counters = reply.harvest.metrics.counters
            assert counters["stage.raw.records"] == counters["op.clean.records_in"] == len(poll)
            assert len(reply.clean_rows) == counters["op.clean.records_out"] > 0
            assert reply.ingest_wall_s is not None
            stamps = {r.ingest_wall_s for name in (TOPIC_RAW, TOPIC_CLEAN) for r in topics[name]}
            assert stamps == {reply.ingest_wall_s}
        finally:
            host.close()

    def test_a_stray_record_in_the_replica_broker_does_not_reach_the_reply(self, fixes):
        """A reply is the poll its run computed, never a read of the
        replica's own broker: a raw record the request did not carry,
        sitting in the replica's topic, changes nothing the parent gets."""
        spec, poll = _RealtimeShardSpec(self.CFG), fixes[400:500]
        replica, clean = spec.setup(0), spec.setup(0)
        stray = fixes[0]
        replica.layer.broker.topic(TOPIC_RAW).publish(Record(stray.t, stray, stray.entity_id, 0.0))
        got_reply, got = decode_reply(spec.handle(0, replica, encode_request(poll)), poll)
        want_reply, want = decode_reply(spec.handle(0, clean, encode_request(poll)), poll)
        assert [r.value for r in got[TOPIC_RAW]] == poll
        assert list(got_reply.clean_rows) == list(want_reply.clean_rows)
        assert_same_records(got, want)

    def test_spawn_context_worker_replies_like_the_inline_host(self, fixes):
        """Every other test forks, which copies the spec; only ``spawn``
        pickles it (and ships the parent's pipe end the worker closes)."""
        spec, poll = _RealtimeShardSpec(self.CFG), fixes[:400]
        inline = InlineHost(spec, 0)
        inline.send(poll)
        want, harvest = inline.receive()
        host = WorkerHost(spec, 0, context=multiprocessing.get_context("spawn"))
        try:
            reply, got = decode_reply(host.request(encode_request(poll)), poll)
        finally:
            host.close()
        assert reply.harvest.metrics.counters == harvest.metrics.counters
        assert_same_records(got, want)
