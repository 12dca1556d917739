"""Integration tests: the full Figure-2 pipeline, end to end."""

import os
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import islice

import pytest

from repro.core import (
    ALL_TOPICS,
    BatchLayer,
    DatacronSystem,
    RealtimeLayer,
    ShardedRealtimeLayer,
    SystemConfig,
    TOPIC_LINKS,
    TOPIC_SYNOPSES,
)
from repro.datasources import AISConfig, AISSimulator, fishing_vessel_stream
from repro.cep import TURN_ALPHABET, symbol_sequence, turn_event_stream
from repro.geo import PositionFix
from repro.kgstore import STConstraint, star
from repro.linkdiscovery import Link
from repro.rdf import A, BlankNode, IRI, Literal, Triple, VOC, var
from repro.rdf.rdfizers import synopses_rdfizer
from repro.streams import Record
from repro.synopses import CriticalPoint, SynopsesGenerator

from tests.conftest import COMPOSITIONS


@pytest.fixture(scope="module")
def system_run():
    """One shared end-to-end run over a simulated fleet."""
    config = SystemConfig(n_regions=80, n_ports=30, seed=11)
    # CEP training stream from a fishing vessel's synopses.
    train_fixes = fishing_vessel_stream(seed=9, duration_s=6 * 3600.0, report_period_s=20.0)
    gen = SynopsesGenerator(config.synopses)
    train_points = list(gen.process_stream(train_fixes)) + gen.flush()
    training_symbols = symbol_sequence(turn_event_stream(train_points))

    system = DatacronSystem(config, t_origin=0.0, t_extent_s=4 * 3600.0, cep_training_symbols=training_symbols)
    sim = AISSimulator(
        n_vessels=12,
        bbox=config.bbox,
        seed=5,
        config=AISConfig(report_period_s=30.0, outlier_probability=0.01),
    )
    run = system.run(sim.fixes(0.0, 2 * 3600.0))
    return system, run


class TestEndToEnd:
    def test_stream_flows_through(self, system_run):
        _, run = system_run
        assert run.realtime.raw_fixes > 500
        assert 0 < run.realtime.clean_fixes <= run.realtime.raw_fixes

    def test_cleaning_drops_outliers(self, system_run):
        _, run = system_run
        assert run.realtime.quality.dropped > 0

    def test_synopses_compress(self, system_run):
        _, run = system_run
        assert 0 < run.realtime.critical_points < run.realtime.clean_fixes
        assert run.realtime.compression_ratio > 0.5

    def test_topics_populated(self, system_run):
        system, run = system_run
        assert system.realtime.broker.topic(TOPIC_SYNOPSES).size() == run.realtime.critical_points

    def test_batch_loaded_store(self, system_run):
        _, run = system_run
        assert run.batch.synopsis_points == run.realtime.critical_points
        assert run.batch.triples > run.batch.synopsis_points  # several triples per node
        assert run.batch.anchored_subjects > 0

    def test_batch_star_query(self, system_run):
        system, _ = system_run
        nodes = system.batch.nodes_in_range(system.config.bbox, 0.0, 2 * 3600.0)
        assert len(nodes) > 0
        assert {"node", "t", "kind"} <= set(nodes[0])

    def test_event_type_counts(self, system_run):
        system, run = system_run
        counts = system.batch.event_type_counts()
        assert sum(counts.values()) > 0
        assert "start" in counts

    def test_dashboard_frame(self, system_run):
        system, _ = system_run
        frame = system.dashboard_frame(t=7200.0)
        assert "positions=" in frame
        assert system.realtime.dashboard.entity_count() == 12

    def test_weather_enrichment_attached(self, system_run):
        """Critical points published downstream carry weather covariates."""
        system, run = system_run
        consumer = system.realtime.broker.consumer(TOPIC_SYNOPSES, group="weather-check")
        points = [r.value for r in consumer.poll()]
        assert points
        enriched = [p for p in points if "weather" in p.detail]
        assert enriched, "no critical point carries weather enrichment"
        sample = enriched[0].detail["weather"]
        assert {"wind_u_ms", "wind_v_ms", "wave_m"} <= set(sample)

    def test_links_discovered(self, system_run):
        system, run = system_run
        assert run.realtime.links >= 0
        assert system.realtime.broker.topic(TOPIC_LINKS).size() == run.realtime.links


class TestBatchViewPushdown:
    def test_incremental_ingests_lose_no_node_to_pushdown(self):
        """The graph puts ``traj hasSemanticNode node`` ahead of many nodes'
        own triples; their ids used to be minted unanchored there, and the
        pushdown plan behind ``nodes_in_range`` then pruned them (216 rows
        for post-filter's 243 on this stream)."""
        config = SystemConfig()
        extent = 24 * 3600.0
        realtime = RealtimeLayer(config)
        batch = BatchLayer(config, realtime.broker, 0.0, extent, registry=realtime.metrics)
        fixes = list(islice(AISSimulator().fixes(0.0, extent), 4000))
        for k in range(4):
            realtime.run(fixes[k * 1000 : (k + 1) * 1000])
            report = batch.ingest_from_broker()
            # Each ingest appends only the triples new to the graph, so the
            # store's counts are the graph's, not a multiple of it.
            stored = len(batch.graph)
            assert len(batch.store) == report.triples == stored
            assert realtime.metrics.gauges("kg.")["kg.triples_stored"] == stored
            assert realtime.metrics.counters("kg.")["kg.triples_loaded"] == stored
        # The graph mirror the offline analytics read still holds every
        # ingest's triples: its counts are those of one rdfizer pass.
        points = [r.value for r in realtime.broker.consumer(TOPIC_SYNOPSES, group="check").poll(10**6)]
        one_pass = set(synopses_rdfizer(points).triples())
        assert batch.event_type_counts() == dict(Counter(t.o.value for t in one_pass if t.p == VOC.eventType))
        query = star(
            "node",
            (A, VOC.SemanticNode),
            (VOC.timestamp, var("t")),
            (VOC.eventType, var("kind")),
            st=STConstraint(config.bbox, 0.0, extent),
        )
        post_filter, _ = batch.store.execute(query, pushdown=False)
        assert batch.nodes_in_range(config.bbox, 0.0, extent) == post_filter != []


_HASH_SEED_RUN = """
from repro.core import DatacronSystem, SystemConfig
from repro.datasources import AISSimulator
system = DatacronSystem(SystemConfig(n_regions=20, n_ports=8, seed=11))
fixes = list(AISSimulator(n_vessels=6, seed=2).fixes(0.0, 3 * 3600.0))
for k in range(3):
    system.run(fixes[k * len(fixes) // 3 : (k + 1) * len(fixes) // 3])
for binding in system.batch.nodes_in_range(system.config.bbox, 0.0, 24 * 3600.0):
    print(binding["node"], binding["t"], binding["kind"])
"""


class TestBatchViewDeterminism:
    def test_query_bindings_do_not_depend_on_the_string_hash_seed(self):
        """The store is loaded in rdfizer order, never in ``set`` order, so
        the bindings of a star query come back in one order under any
        ``PYTHONHASHSEED``."""
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _HASH_SEED_RUN], env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True, timeout=300,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0].count("\n") > 10
        assert outputs[0] == outputs[1]


class TestCEPIntegration:
    def test_fishing_stream_produces_detections(self):
        """A trawling vessel's reversals must be detected end to end."""
        from repro.synopses import SynopsesConfig

        config = SystemConfig(n_regions=20, n_ports=10, seed=3, synopses=SynopsesConfig(min_reemit_s=30.0))
        train = fishing_vessel_stream(seed=9, duration_s=8 * 3600.0, report_period_s=20.0)
        gen = SynopsesGenerator(config.synopses)
        points = list(gen.process_stream(train)) + gen.flush()
        symbols = symbol_sequence(turn_event_stream(points))
        system = DatacronSystem(config, cep_training_symbols=symbols)
        test_fixes = fishing_vessel_stream(seed=21, duration_s=6 * 3600.0, report_period_s=20.0)
        run = system.run(iter(test_fixes))
        assert run.realtime.cep_detections > 0
        assert run.realtime.cep_forecasts > 0


class TestShardedDeployment:
    """``SystemConfig.n_shards`` / ``worker_pool`` are real switches of
    :class:`DatacronSystem`, not only of the layer underneath."""

    def config(self, **switches) -> SystemConfig:
        return SystemConfig(n_regions=20, n_ports=8, seed=11, **switches)

    def fixes(self):
        return list(AISSimulator(n_vessels=8, seed=2).fixes(0.0, 1800.0))

    def test_n_shards_switch_equals_the_hand_wired_single_shard_oracle(self):
        oracle_rt = ShardedRealtimeLayer(self.config(n_shards=1))
        oracle_batch = BatchLayer(
            oracle_rt.config, oracle_rt.broker, 0.0, 24 * 3600.0, registry=oracle_rt.metrics
        )
        oracle_report = oracle_rt.run(self.fixes())
        with DatacronSystem(self.config(n_shards=2)) as system:
            assert isinstance(system.realtime, ShardedRealtimeLayer)
            assert system.realtime.n_shards == 2
            run = system.run(self.fixes())
        assert run.realtime == oracle_report
        assert run.batch == oracle_batch.ingest_from_broker()
        assert run.batch.synopsis_points == run.realtime.critical_points > 0
        for topic in ALL_TOPICS:
            got = system.realtime.broker.consumer(topic, "test").poll()
            want = oracle_rt.broker.consumer(topic, "test").poll()
            assert got == want, topic

    def test_worker_pool_switch_hosts_replicas_in_workers_until_close(self):
        with DatacronSystem(self.config(worker_pool=True)) as system:
            hosts = system.realtime._hosts
            assert system.realtime.use_worker_pool and all(h.alive() for h in hosts)
            assert system.run(self.fixes()).realtime.raw_fixes == len(self.fixes())
        assert not any(h.alive() for h in hosts)

    def test_default_config_stays_the_plain_layer(self):
        system = DatacronSystem(self.config())
        assert type(system.realtime) is RealtimeLayer
        system.close()  # nothing to shut down


class TestBatchReport:
    def test_reads_its_own_registry_when_given_none(self):
        """Without a registry the batch layer instruments one of its own,
        and its report is read from that counter and the store."""
        config = SystemConfig()
        realtime = RealtimeLayer(config)
        batch = BatchLayer(config, realtime.broker, 0.0, 24 * 3600.0)
        fixes = list(AISSimulator(n_vessels=4, seed=2).fixes(0.0, 1800.0))
        for half in (fixes[: len(fixes) // 2], fixes[len(fixes) // 2 :]):
            realtime.run(half)
            report = batch.ingest_from_broker()
        points = realtime.broker.topic(TOPIC_SYNOPSES).size()
        assert report == batch.report
        assert report.synopsis_points == batch.registry.counters()["batch.synopsis_points"] == points > 0
        assert report.triples == len(batch.store) == len(batch.graph)
        assert batch.registry.counters()["op.load.batches"] == 2
        assert batch.registry.gauges()["batch.wall_s"] > 0.0
        assert "batch.synopsis_points" not in realtime.metrics.counters()


class TestIngestTrace:
    """Each ingest is one ``ingest`` root on the batch layer's own tracer,
    its regions in order and probed, and ``batch.wall_s`` their sum."""

    REGIONS = ["drain", "rdfize", "dedup", "load"]

    @pytest.fixture(scope="class")
    def ingests(self):
        """Two ingests with points to drain, then one with none: per call,
        the points it could drain and the deltas of the counters and store."""
        system = DatacronSystem(SystemConfig(n_regions=10, n_ports=5, seed=3))
        batch, topic = system.batch, system.realtime.broker.topic(TOPIC_SYNOPSES)
        # Large enough that each ingest takes milliseconds, so a scheduler
        # hiccup between two regions stays far below 5 % of its root.
        fixes = list(AISSimulator(n_vessels=24, seed=2).fixes(0.0, 7200.0))
        calls = []
        for chunk in (fixes[: len(fixes) // 2], fixes[len(fixes) // 2 :], []):
            counters, points, stored = batch.registry.counters(), topic.size(), len(batch.store)
            system.run(chunk)
            after = batch.registry.counters()
            delta = {name: n - counters.get(name, 0) for name, n in after.items()}
            calls.append((topic.size() - points, delta, len(batch.store) - stored))
        return batch, calls

    def test_each_call_is_one_root_with_its_regions_in_order(self, ingests):
        batch, calls = ingests
        spans = batch.tracer.spans()
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["ingest"] * len(calls)
        assert [points > 0 for points, _, _ in calls] == [True, True, False]
        for root, (points, _, _) in zip(roots, calls):
            regions = [span.name for span in spans if span.parent_id == root.span_id]
            assert regions == (self.REGIONS if points else ["drain"])

    def test_regions_cover_each_root_and_the_roots_are_the_wall(self, ingests):
        batch, calls = ingests
        spans = batch.tracer.spans()
        roots = [span for span in spans if span.parent_id is None]
        covered = [sum(s.duration_s for s in spans if s.parent_id == root.span_id) for root in roots]
        for root, seconds, (points, _, _) in zip(roots, covered, calls):
            assert seconds <= root.duration_s
            if points:
                assert seconds >= 0.95 * root.duration_s
        wall = batch.registry.gauge("batch.wall_s").value()
        assert wall == pytest.approx(sum(root.duration_s for root in roots), rel=1e-12)

    def test_region_counts_chain_into_the_store(self, ingests):
        _, calls = ingests
        for points, delta, stored in calls:
            assert delta["op.drain.batches"] == 1 and delta["op.drain.records_out"] == points
            if not points:
                assert delta.get("op.rdfize.batches", 0) == delta.get("op.load.batches", 0) == 0
                assert delta.get("kg.triples_loaded", 0) == stored == 0
                continue
            assert delta["op.rdfize.records_in"] == points
            assert delta["op.rdfize.records_out"] == delta["op.dedup.records_in"] > delta["op.dedup.records_out"]
            assert delta["op.dedup.records_out"] == delta["op.load.records_in"] == delta["kg.triples_loaded"] == stored


#: The stream value types and the RDF terms: immutable by contract, not by ``frozen``.
STREAM_VALUES = (PositionFix, Record, CriticalPoint, Link)
RDF_TERMS = (IRI, Literal, BlankNode, Triple)


@pytest.mark.parametrize("composition", COMPOSITIONS)
def test_stream_values_are_written_once(composition, monkeypatch):
    """No stage assigns to a fix, record, critical point, link, RDF term or
    triple it did not just build. A write-once guard on their ``__setattr__`` /
    ``__delattr__`` lets a field be set only while its slot is unset,
    then every composition runs the tier-1 fleet (one hour, CEP trained)
    through :class:`DatacronSystem` (which deploys ``n_shards=1`` as the
    plain layer): three polls, then one ingest. The pooled workers fork
    after the patch, so they run guarded too; a guarded write there
    comes back as a ``ShardWorkerError``."""
    built = Counter()

    def guard(cls):
        def __setattr__(self, name, value):
            if hasattr(self, name):
                raise FrozenInstanceError(f"cannot assign to field {name!r} of a {cls.__name__}")
            built[cls] += 1
            object.__setattr__(self, name, value)

        def __delattr__(self, name):
            raise FrozenInstanceError(f"cannot delete field {name!r} of a {cls.__name__}")

        monkeypatch.setattr(cls, "__setattr__", __setattr__)
        monkeypatch.setattr(cls, "__delattr__", __delattr__)

    for cls in STREAM_VALUES + RDF_TERMS:
        guard(cls)
    fix = PositionFix("vessel", 0.0, 1.0, 2.0)
    with pytest.raises(FrozenInstanceError):
        fix.t = 1.0
    with pytest.raises(FrozenInstanceError):
        del fix.annotations
    blank = BlankNode("b1")
    with pytest.raises(FrozenInstanceError):
        Triple(blank, A, VOC.Trajectory).o = blank

    config = SystemConfig(
        n_regions=20, n_ports=8, seed=11, proximity_space_m=500_000.0, proximity_time_s=3600.0,
        **COMPOSITIONS[composition],
    )
    fixes = list(AISSimulator(n_vessels=10, seed=5).fixes(0.0, 3600.0))
    with DatacronSystem(config, cep_training_symbols=list(TURN_ALPHABET) * 5) as system:
        for i in range(3):
            system.realtime.run(fixes[len(fixes) * i // 3 : len(fixes) * (i + 1) // 3])
        assert system.batch.ingest_from_broker().synopsis_points > 0
    # Each type was built under the guard in this process (the blank node
    # only above: the ingest builds none).
    assert all(built[cls] for cls in STREAM_VALUES + RDF_TERMS), built
