"""Tests for the sharded real-time layer (repro.core.sharded).

The oracle contract: ``ShardedRealtimeLayer`` with ``SystemConfig(n_shards=1)``
is the single-shard baseline, and every ``n_shards >= 2`` run must produce
byte-identical merged topic streams — the canonical ``(t, key)`` merge makes
that hold by construction, and these tests make it load-bearing.
"""

from dataclasses import replace

import multiprocessing

import pytest

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
from repro.core.frames import decode_reply, encode_request
from repro.core.realtime import EntityStages
from repro.core.sharded import _RealtimeShardSpec
from repro.cep import symbol_sequence, turn_event_stream
from repro.datasources import AISSimulator, fishing_vessel_stream
from repro.geo import FixColumns
from repro.streams import Record, ShardWorkerError, WorkerHost
from repro.streams.workers import InlineHost
from repro.synopses import SynopsesConfig, SynopsesGenerator


ENTITY_STAGES = ("clean", "area_events", "synopses", "link_discovery")


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


def topic_records(layer):
    """Every topic's full record stream."""
    return drain(dump_consumers(layer))


def topic_streams(layer):
    return {
        name: [(r.t, r.key, type(r.value).__name__) for r in records]
        for name, records in topic_records(layer).items()
    }


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

    def test_n_shards_2_matches_single_shard_oracle(self, fixes):
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        r1 = oracle.run(list(fixes))
        r2 = sharded.run(list(fixes))
        assert r2 == r1
        assert topic_streams(sharded) == topic_streams(oracle)

    def test_n_shards_4_matches_single_shard_oracle(self, fixes):
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=4))
        assert sharded.run(list(fixes)) == oracle.run(list(fixes))
        assert topic_streams(sharded) == topic_streams(oracle)

    def test_per_entity_counters_match_plain_layer(self, fixes):
        """Every per-entity stage (cleaning, synopses, area events, region/
        port links) is key-local, so the sharded totals must equal the plain
        unsharded layer's."""
        plain = RealtimeLayer(SystemConfig())
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        rp = plain.run(list(fixes))
        rs = sharded.run(list(fixes))
        assert rs.raw_fixes == rp.raw_fixes
        assert rs.clean_fixes == rp.clean_fixes
        assert rs.critical_points == rp.critical_points
        assert rs.area_events == rp.area_events
        assert rs.quality == rp.quality

    def test_entity_routing_is_sticky(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        sharded.run(list(fixes))
        for fix in fixes:
            shard = sharded.shard_for(fix.entity_id)
            assert shard == sharded.shard_for(fix.entity_id)
        # Every raw fix landed on the shard its entity hashes to.
        per_shard_raw = [s.report.raw_fixes for s in sharded.shards]
        assert sum(per_shard_raw) == len(fixes)

    def test_global_proximity_sees_cross_shard_pairs(self, fixes):
        """Proximity runs once over the merged stream, so link counts are
        shard-count invariant — per-shard discovery would miss every
        cross-shard pair."""
        cfg = dict(proximity_space_m=500_000.0, proximity_time_s=3600.0)
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1, **cfg))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=4, **cfg))
        r1 = oracle.run(list(fixes))
        r4 = sharded.run(list(fixes))
        assert r1.proximity_links > 0  # the loose threshold must actually fire
        assert r4.proximity_links == r1.proximity_links
        assert r4.links == r1.links


class TestThreeCompositions:
    """The plain layer, the sharded layer and the pooled sharded layer are
    three compositions of one ``EntityStages`` and one ``GlobalStages``."""

    @pytest.fixture(scope="class")
    def layers(self, fixes):
        """Each composition after two runs of a fleet plus a trawler, CEP
        trained as in ``test_core_integration``."""
        cfg = SystemConfig(
            synopses=SynopsesConfig(min_reemit_s=30.0), proximity_space_m=500_000.0, proximity_time_s=3600.0
        )
        gen = SynopsesGenerator(cfg.synopses)
        train = fishing_vessel_stream(seed=9, duration_s=8 * 3600.0, report_period_s=20.0)
        symbols = symbol_sequence(turn_event_stream([*gen.process_stream(train), *gen.flush()]))
        trawler = fishing_vessel_stream(seed=21, duration_s=6 * 3600.0, report_period_s=20.0)
        stream = sorted([*fixes, *trawler], key=lambda fix: fix.t)
        sharded = replace(cfg, n_shards=3)
        built = {
            "plain": RealtimeLayer(cfg, symbols),
            "n_shards=1": ShardedRealtimeLayer(cfg, symbols),
            "n_shards=3": ShardedRealtimeLayer(sharded, symbols),
            "pooled": ShardedRealtimeLayer(replace(sharded, worker_pool=True), symbols),
        }
        for layer in built.values():
            with layer:
                layer.run(stream[:2000])
                layer.run(stream[2000:])
        return built

    @pytest.mark.parametrize("name", ["plain", "n_shards=1", "n_shards=3", "pooled"])
    def test_composition_agrees_with_the_plain_layer(self, layers, name):
        layer, plain = layers[name], layers["plain"]
        report = layer.report
        for counter in ("raw_fixes", "clean_fixes", "critical_points", "area_events", "quality"):
            assert getattr(report, counter) == getattr(plain.report, counter), counter
        assert layer.metrics.histogram("e2e.record_latency_s").count == report.critical_points
        assert layer.broker.topic(TOPIC_EVENTS).size() == report.cep_detections > 0
        assert set(layer.metrics.counters("op.")) == set(plain.metrics.counters("op."))
        # Regression: replicas used to feed dashboards of their own, folded
        # on top of the merged-stream one (2x), and the plain layer never
        # showed its dashboard the trailing `end` points.
        dashboard = layer.metrics.counters("dashboard.")
        assert dashboard == plain.metrics.counters("dashboard.")
        assert dashboard["dashboard.positions"] == report.clean_fixes
        assert dashboard["dashboard.synopses"] == report.critical_points
        assert not [n for n in layer.metrics.counters("shard.") if ".dashboard." in n]

    def test_sharded_compositions_agree_on_the_order_dependent_outputs(self, layers):
        """The plain layer feeds the global stages in arrival order, the
        sharded ones in canonical ``(t, key)`` order."""
        oracle = layers["n_shards=1"]
        for name in ("n_shards=3", "pooled"):
            assert layers[name].report == oracle.report, name
            assert topic_streams(layers[name]) == topic_streams(oracle), name

    def test_compositions_drop_non_finite_timestamps_alike(self, fixes):
        """NaN/inf ``t`` compares False with everything, so it used to pass
        cleaning and then order the ``(t, key)`` merge by float identity."""
        stream = list(fixes[:1200])
        bad = (float("nan"), float("inf"), float("-inf"))
        for n, i in enumerate(range(0, len(stream), 40)):
            stream[i] = replace(stream[i], t=bad[n % 3])
        sharded = SystemConfig(n_shards=3)
        layers = {
            "plain": RealtimeLayer(SystemConfig()),
            "n_shards=3": ShardedRealtimeLayer(sharded),
            "pooled": ShardedRealtimeLayer(replace(sharded, worker_pool=True)),
        }
        streams = {}
        for name, layer in layers.items():
            with layer:
                layer.run(stream[:700])
                layer.run(stream[700:])
            streams[name] = topic_streams(layer)
            # Raw records keep their NaN stamps, and NaN != NaN.
            streams[name][TOPIC_RAW] = len(streams[name][TOPIC_RAW])
        plain = layers["plain"].report
        assert plain.quality.flagged["non_finite_time"] == 30
        assert plain.clean_fixes == 1200 - plain.quality.dropped > 0
        for name in ("n_shards=3", "pooled"):
            report = layers[name].report
            for counter in ("raw_fixes", "clean_fixes", "critical_points", "area_events", "quality"):
                assert getattr(report, counter) == getattr(plain, counter), (name, counter)
        assert layers["pooled"].report == layers["n_shards=3"].report
        assert streams["pooled"] == streams["n_shards=3"]

    def test_entity_stages_alone_have_no_global_half(self, fixes):
        stages = EntityStages(SystemConfig())
        assert stages.run(fixes[:500]).critical_points > 0
        assert not {"dashboard", "health", "proximity", "cep"} & set(vars(stages))
        assert stages.broker.topic(TOPIC_EVENTS).size() == 0


class TestShardObservability:
    def test_shard_gauges_registered(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        sharded.run(list(fixes))
        gauges = sharded.metrics.gauges("shard.")
        for i in range(3):
            for leaf in ("raw_fixes", "clean_fixes", "critical_points", "links", "wall_s"):
                assert f"shard.{i}.{leaf}" in gauges
        assert gauges["shard.count"] == 3.0
        assert sum(gauges[f"shard.{i}.raw_fixes"] for i in range(3)) == len(fixes)

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

    def test_run_events_emitted(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        kinds = [e.kind for e in sharded.events.events() if e.component == "realtime"]
        assert "sharded_run_started" in kinds and "sharded_run_finished" in kinds


class TestHarvestFold:
    """The distributed obs plane over the Figure-2 shard replicas."""

    def nonshard_counters(self, layer):
        return {
            name: value
            for name, value in layer.metrics.counters().items()
            if not name.startswith("shard.")
        }

    def test_folded_counters_equal_single_shard_oracle(self, fixes):
        """Every merged counter equals the oracle's, except the observe
        calls of the entity-stage probes: a stage is observed once per run
        *per replica*, so that family is ``n_shards x runs`` by construction."""
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        half = len(fixes) // 2
        for layer in (oracle, sharded):
            layer.run(fixes[:half])
            layer.run(fixes[half:])
        stage_batches = {f"op.{stage}.batches" for stage in ENTITY_STAGES}
        got, want = self.nonshard_counters(sharded), self.nonshard_counters(oracle)
        for counters, n_shards in ((got, 3), (want, 1)):
            assert {counters.pop(name) for name in stage_batches} == {n_shards * 2}
        assert got == want
        assert got["op.proximity.batches"] == 2  # the global half runs once per run

    def test_per_shard_counter_families_sum_to_merged(self, fixes):
        """Harvest completeness: every counter family a shard reports is
        folded whole — merged = Σ ``shard.<i>.<family>`` — across chunked
        runs and on both hosts (looped, not parametrised, so the test id
        stays stable)."""
        half = len(fixes) // 2
        for worker_pool in (False, True):
            with ShardedRealtimeLayer(SystemConfig(n_shards=3, worker_pool=worker_pool)) as sharded:
                sharded.run(fixes[:half])
                sharded.run(fixes[half:])
                counters = sharded.metrics.counters()
            parts: dict[str, int] = {}
            for name, value in counters.items():
                head, _, rest = name.partition(".")
                shard, _, family = rest.partition(".")
                if head == "shard" and shard.isdigit():
                    parts[family] = parts.get(family, 0) + value
            assert {"op.clean.records_in", "stage.raw.records"} <= parts.keys()
            assert parts == {family: counters[family] for family in parts}, f"{worker_pool=}"

    def test_e2e_record_latency_on_merged_stream(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        e2e = sharded.metrics.histogram("e2e.record_latency_s")
        assert e2e.count > 0
        assert 0.0 <= e2e.min and e2e.max < 60.0  # wall stamps, not event time

    def test_repeated_runs_fold_deltas_not_cumulative_state(self, fixes):
        """Replicas are long-lived, so each run must fold the *increment*
        of their cumulative registries — a cumulative (non-delta) fold
        would make ``shard.<i>.<name>`` overshoot the replica's own
        counter after the second run."""
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        for _ in range(2):
            sharded.run(list(fixes))
            merged = sharded.metrics.counters()
            for i, shard in enumerate(sharded.shards):
                for name, value in shard.metrics.counters().items():
                    assert merged.get(f"shard.{i}.{name}", 0) == value, name
        # Stateless ingest families double exactly with the input; the
        # merged family is fold (= replica sum) + the parent's own count.
        assert merged["stage.raw.records"] == 2 * len(fixes)
        assert merged["op.clean.records_in"] == sum(
            merged[f"shard.{i}.op.clean.records_in"] for i in range(2)
        )

    def test_shard_events_merged_with_origin_tags(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        tagged = [e for e in sharded.events.events() if "shard" in e.tags]
        assert tagged
        assert {e.tags["shard"] for e in tagged} <= {0, 1}

    def test_shard_traces_rehomed_under_sharded_run_root(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        roots = [sp for sp in sharded.tracer.spans() if sp.name == "sharded.run"]
        assert len(roots) == 1
        sharded.run(list(fixes))
        roots = [sp for sp in sharded.tracer.spans() if sp.name == "sharded.run"]
        assert len(roots) == 2  # one synthetic root per run

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
    worker processes (SystemConfig.worker_pool). The in-process layer
    (worker_pool=False) is the determinism oracle."""

    def chunks(self, fixes, n=3):
        size = (len(fixes) + n - 1) // n
        return [list(fixes[i: i + size]) for i in range(0, len(fixes), size)]

    def test_pooled_matches_in_process_oracle_across_runs(self, fixes):
        """>= 3 consecutive incremental runs: reports, full merged topic
        records and folded counters byte-identical to the oracle."""
        cfg = SystemConfig(n_shards=3, proximity_space_m=500_000.0, proximity_time_s=3600.0)
        oracle = ShardedRealtimeLayer(cfg)
        with ShardedRealtimeLayer(replace(cfg, worker_pool=True)) as pooled:
            for chunk in self.chunks(fixes, 3):
                assert pooled.run(chunk) == oracle.run(chunk)
            got, want = topic_records(pooled), topic_records(oracle)
            assert_same_records(got, want)
            assert got[TOPIC_SYNOPSES] and got[TOPIC_LINKS]
            assert pooled.metrics.counters() == oracle.metrics.counters()
            assert pooled.balance() == oracle.balance()
            assert (
                pooled.system_metrics()["shards"]
                == oracle.system_metrics()["shards"]
            )

    @pytest.mark.parametrize("worker_pool", [False, True])
    def test_report_links_equal_links_topic_after_every_run(self, fixes, worker_pool):
        """The merged report is cumulative in every field: region/port
        links come summed from the replicas' cumulative reports, so the
        global stages' totals must accumulate across runs too."""
        cfg = SystemConfig(n_shards=2, proximity_space_m=500_000.0, proximity_time_s=3600.0)
        with ShardedRealtimeLayer(replace(cfg, worker_pool=worker_pool)) as layer:
            proximity_before = 0
            for chunk in self.chunks(fixes, 4):
                report = layer.run(chunk)
                assert report.links == layer.broker.topic(TOPIC_LINKS).size()
                assert report.proximity_links > proximity_before
                proximity_before = report.proximity_links
            assert report.links > report.proximity_links > 0

    def test_pool_records_ipc_cost_per_shard_and_run(self, fixes):
        from repro.obs import parse_openmetrics, render_openmetrics

        with ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=True)) as pooled:
            for chunk in self.chunks(fixes, 3):
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
                # Replica construction (regions, ports, masks) dwarfs a
                # 200-fix run: folding it into walls would be visible.
                assert layer.metrics.gauge("shard.0.setup_s").value() > 0.0


class TestShardFrames:
    """The pooled wire format at the replica boundary: one request frame
    in, one reply frame out, decoded against the caller's own fixes — and
    compared, record for record, with a plain replica fed the same polls."""

    CFG = SystemConfig()

    def serve(self, polls):
        """Per poll: (topics decoded from the reply, topics of the twin)."""
        spec = _RealtimeShardSpec(self.CFG)
        replica = spec.setup(0)
        twin = EntityStages(self.CFG)
        twin_consumers = dump_consumers(twin)
        out = []
        for poll in polls:
            reply, topics = decode_reply(spec.handle(0, replica, encode_request(poll)), poll)
            twin.run(poll)
            assert reply.report == twin.report
            out.append((topics, drain(twin_consumers)))
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
        assert reply.report.raw_fixes == len(poll)
        assert calls == []

    def test_empty_request(self):
        [(got, want)] = self.serve([[]])
        assert_same_records(got, want)
        assert not got[TOPIC_RAW]

    def test_single_entity_shard(self, fixes):
        one = [f for f in fixes if f.entity_id == fixes[0].entity_id]
        [(got, want)] = self.serve([one])
        assert_same_records(got, want)
        assert len(got[TOPIC_RAW]) == len(one) and got[TOPIC_CLEAN]

    def test_poll_entirely_dropped_by_cleaning(self, fixes):
        junk = [replace(f, lat=95.0) for f in fixes[:50]]
        for got, want in self.serve([fixes[:300], junk]):
            assert_same_records(got, want)
        assert len(got[TOPIC_RAW]) == 50 and not got[TOPIC_CLEAN]

    def test_flush_end_point_of_a_fix_from_an_earlier_request(self, fixes):
        """Every run() closes the stream, so entity A gets an `end` point
        in a request that carries none of its fixes — a derived record
        around a fix the parent cannot name by row: it travels by value."""
        a = fixes[0].entity_id
        first = [f for f in fixes[:600] if f.entity_id == a]
        second = [f for f in fixes[600:1200] if f.entity_id != a]
        (_, _), (got, want) = self.serve([first, second])
        assert_same_records(got, want)
        ends = [r.value for r in got[TOPIC_SYNOPSES] if r.key == a]
        assert ends and all(cp.fix in first for cp in ends)

    def test_worker_rejects_a_raw_count_mismatch_and_stays_alive(self, fixes):
        """Reply-by-reference assumes one raw record per request fix; the
        worker checks it on every request. A request that blows up
        mid-run cannot strand raw records in the replica's topic — a run
        publishes nothing until every stage has its output — so the
        request after a poisoned one is served with exactly its own rows."""
        host = WorkerHost(_RealtimeShardSpec(self.CFG), 0)
        try:
            poison = replace(fixes[300], lon=None)
            with pytest.raises(ShardWorkerError, match="TypeError"):
                host.request(encode_request([*fixes[:300], poison]))
            assert host.alive()
            poll = fixes[300:400]
            reply, topics = decode_reply(host.request(encode_request(poll)), poll)
            assert [r.value for r in topics[TOPIC_RAW]] == poll
            assert reply.report.raw_fixes == len(poll)
        finally:
            host.close()

    def test_stray_raw_record_in_the_replica_topic_is_refused(self, fixes):
        """The by-reference guard itself: a raw record the request did not
        carry makes the reply inexpressible by row, and the replica says so."""
        spec = _RealtimeShardSpec(self.CFG)
        replica = spec.setup(0)
        stray = fixes[0]
        replica.layer.broker.topic(TOPIC_RAW).publish(Record(stray.t, stray, stray.entity_id, 0.0))
        with pytest.raises(ValueError, match="raw topic yielded 101 records for a 100-fix request"):
            spec.handle(0, replica, encode_request(fixes[300:400]))
        # Drained with the refused request: the next one is expressible again.
        poll = fixes[400:500]
        _, topics = decode_reply(spec.handle(0, replica, encode_request(poll)), poll)
        assert [r.value for r in topics[TOPIC_RAW]] == poll

    def test_spawn_context_worker_replies_like_the_inline_host(self, fixes):
        """Every other test forks, which copies the spec; only ``spawn``
        pickles it (and ships the parent's pipe end the worker closes)."""
        spec, poll = _RealtimeShardSpec(self.CFG), fixes[:400]
        inline = InlineHost(spec, 0)
        inline.send(poll)
        report, want, _, _ = inline.receive()
        host = WorkerHost(spec, 0, context=multiprocessing.get_context("spawn"))
        try:
            reply, got = decode_reply(host.request(encode_request(poll)), poll)
        finally:
            host.close()
        assert reply.report == report
        assert_same_records(got, want)
