"""Tests for the sharded execution substrate (repro.streams.sharding).

The correctness story is the single-shard oracle: every sharded run is
checked against ``n_shards=1`` (which is the unsharded pipeline by
construction) and, for keyed workloads, against a plain
:class:`Pipeline` run on the same elements. The facade's contract is
checked twice, with the replicas in-process (``worker_pool=False``, the
oracle side of every comparison) and in worker processes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    Map,
    Pipeline,
    Record,
    ShardRouter,
    ShardedPipeline,
    ShardWorkerError,
    TumblingWindow,
    Watermark,
    WatermarkAssigner,
    count_aggregate,
    merge_shard_outputs,
    run_sharded,
    shard_index,
)


def keyed_records(n, n_keys=7, dt=1.0):
    return [Record(i * dt, i, key=f"vessel-{i % n_keys}") for i in range(n)]


def window_pipeline() -> Pipeline:
    return Pipeline([TumblingWindow(10.0, count_aggregate)])


def map_pipeline() -> Pipeline:
    return Pipeline([Map(lambda v: v + 1)])


def dividing_pipeline() -> Pipeline:
    return Pipeline([Map(lambda v: 10 // v)])


def assigner() -> WatermarkAssigner:
    return WatermarkAssigner(out_of_orderness_s=5.0)


keyed_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.integers(min_value=0, max_value=20),
    ),
    max_size=200,
)


def canonical(records):
    """Output lists compared order-sensitively on the canonical fields."""
    return [(r.t, r.key, r.value) for r in records]


class TestShardRouter:
    def test_keyed_records_are_sticky(self):
        router = ShardRouter(4)
        shards = {router.shard_for(Record(float(i), i, key="vessel-3")) for i in range(10)}
        assert len(shards) == 1
        assert shards == {shard_index("vessel-3", 4)}

    def test_keyless_round_robin(self):
        router = ShardRouter(3)
        assert [router.shard_for(Record(float(i), i)) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_watermarks_broadcast(self):
        routed = ShardRouter(3).route([Record(0.0, "a", key="k"), Watermark(5.0)])
        assert all(Watermark(5.0) in shard for shard in routed)
        assert sum(isinstance(el, Record) for shard in routed for el in shard) == 1

    def test_route_preserves_per_key_order(self):
        records = keyed_records(50)
        routed = ShardRouter(4).route(records)
        for shard in routed:
            for key in {r.key for r in shard}:
                sub = [r.value for r in shard if r.key == key]
                assert sub == sorted(sub)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestMergeShardOutputs:
    def test_orders_by_time_then_key(self):
        merged = merge_shard_outputs([
            [Record(2.0, "b", key="x")],
            [Record(1.0, "a", key="z"), Record(2.0, "c", key="a")],
        ])
        assert canonical(merged) == [(1.0, "z", "a"), (2.0, "a", "c"), (2.0, "x", "b")]

    def test_stable_within_equal_t_key(self):
        first = Record(1.0, "first", key="k")
        second = Record(1.0, "second", key="k")
        merged = merge_shard_outputs([[first, second]])
        assert [r.value for r in merged] == ["first", "second"]


class TestShardedPipeline:
    """Everything the facade promises wherever its replicas live — run
    again by :class:`TestShardedPipelineWorkerPool` with every replica in
    a worker process. Oracles are always in-process."""

    worker_pool = False

    def sharded(self, factory, n_shards, **kwargs) -> ShardedPipeline:
        return ShardedPipeline(factory, n_shards, worker_pool=self.worker_pool, **kwargs)

    def test_matches_single_shard_oracle(self):
        records = keyed_records(200)
        oracle = ShardedPipeline(window_pipeline, n_shards=1, watermark_factory=assigner)
        with self.sharded(window_pipeline, 4, watermark_factory=assigner) as sharded:
            assert canonical(sharded.run_to_end(records)) == canonical(oracle.run_to_end(records))

    def test_matches_plain_pipeline(self):
        records = keyed_records(200)
        plain = merge_shard_outputs([window_pipeline().run(records, watermarks=assigner(), flush=True)])
        for n_shards in (1, 3):
            with self.sharded(window_pipeline, n_shards, watermark_factory=assigner) as sharded:
                assert canonical(sharded.run_to_end(records)) == canonical(plain)

    def test_incremental_runs_then_finish(self):
        records = keyed_records(100)
        one_shot = ShardedPipeline(window_pipeline, 3, watermark_factory=assigner)
        with self.sharded(window_pipeline, 3, watermark_factory=assigner) as sharded:
            out = list(sharded.run(records[:50]))
            out.extend(sharded.run(records[50:]))
            out.extend(sharded.finish())
        assert canonical(sorted(out, key=lambda r: (r.t, r.key or ""))) == canonical(
            one_shot.run_to_end(records)
        )

    def test_finish_is_single_use(self):
        """... until reset() re-arms the same replicas' hosts for a new stream."""
        records = keyed_records(50)
        with self.sharded(window_pipeline, 2, watermark_factory=assigner) as sharded:
            first = sharded.run_to_end(records)
            with pytest.raises(RuntimeError, match="finished"):
                sharded.finish()
            with pytest.raises(RuntimeError, match="finished"):
                sharded.run([])
            sharded.reset()
            assert canonical(sharded.run_to_end(records)) == canonical(first)

    def test_min_watermark_lags_slowest_shard(self):
        with self.sharded(map_pipeline, 2, watermark_factory=assigner) as sharded:
            assert sharded.min_watermark() == float("-inf")
            # Both keys hash to known shards; feed them unevenly.
            keys = sorted({f"k{i}" for i in range(10)}, key=lambda k: shard_index(k, 2))
            lo = next(k for k in keys if shard_index(k, 2) == 0)
            hi = next(k for k in keys if shard_index(k, 2) == 1)
            sharded.run([Record(100.0, 1, key=lo), Record(20.0, 1, key=hi)])
            assert sharded.min_watermark() == 20.0 - 5.0

    def test_wall_and_balance_accounting(self):
        records = keyed_records(100)
        with self.sharded(map_pipeline, 2) as sharded:
            sharded.run_to_end(records)
            assert sum(sharded.records_processed()) == len(records)
            assert all(s > 0.0 for s in sharded.setup_seconds())

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            self.sharded(map_pipeline, 0)

    def test_failed_shard_leaves_the_others_in_step(self):
        """Regression: gather used to raise at the first failing shard and
        leave the other shards' replies unread in their pipes, so every
        later run returned the *previous* run's reply for those shards."""
        key_of = {shard_index(k, 2): k for k in "abcdefgh"}
        a, b = key_of[0], key_of[1]
        with self.sharded(dividing_pipeline, 2) as sharded:
            with pytest.raises(ShardWorkerError, match="ZeroDivisionError") as err:
                sharded.run([Record(1.0, 0, key=a), Record(1.0, 5, key=b)])
            assert err.value.shard == 0
            assert canonical(sharded.run([Record(2.0, 1, key=a), Record(2.0, 2, key=b)])) == sorted(
                [(2.0, a, 10), (2.0, b, 5)]
            )

    def check_sharded_equals_oracle(self, pairs, n_shards):
        records = [Record(t, k, key=f"entity-{k}") for t, k in sorted(pairs)]
        oracle = ShardedPipeline(window_pipeline, n_shards=1, watermark_factory=assigner)
        with self.sharded(window_pipeline, n_shards, watermark_factory=assigner) as sharded:
            assert canonical(sharded.run_to_end(records)) == canonical(oracle.run_to_end(records))

    @settings(max_examples=50, deadline=None)
    @given(keyed_streams, st.integers(min_value=2, max_value=6))
    def test_property_sharded_equals_oracle(self, pairs, n_shards):
        """For any keyed stream, N shards == the n_shards=1 oracle."""
        self.check_sharded_equals_oracle(pairs, n_shards)


class TestShardedPipelineWorkerPool(TestShardedPipeline):
    worker_pool = True

    # Hypothesis refuses to run one @given method from two classes; this
    # copy also spawns its workers per example, so it draws fewer.
    @settings(max_examples=15, deadline=None)
    @given(keyed_streams, st.integers(min_value=2, max_value=6))
    def test_property_sharded_equals_oracle(self, pairs, n_shards):
        self.check_sharded_equals_oracle(pairs, n_shards)


class TestRunSharded:
    def test_sequential_matches_oracle(self):
        records = keyed_records(150)
        merged = run_sharded(window_pipeline, records, 4, watermark_factory=assigner)
        oracle = run_sharded(window_pipeline, records, 1, watermark_factory=assigner)
        assert canonical(merged) == canonical(oracle)

    def test_n_shards_one_is_plain_pipeline(self):
        records = keyed_records(80)
        merged = run_sharded(window_pipeline, records, n_shards=1, watermark_factory=assigner)
        plain = window_pipeline().run(records, watermarks=assigner(), flush=True)
        assert canonical(merged) == canonical(merge_shard_outputs([plain]))
