"""Tests for key sharding (repro.streams.sharding): the key -> shard
assignment and the canonical ``(t, key)`` shard merge. The executor that
runs on them is held by the equivalence matrix
(``test_core_per_fix_oracle.py``): every sharded composition's merged
topics equal the ``n_shards=1`` run's after every poll."""

from repro.streams import Record, Topic, merge_shard_outputs, shard_index


def canonical(records):
    """Output lists compared order-sensitively on the canonical fields."""
    return [(r.t, r.key, r.value) for r in records]


class TestShardIndex:
    def test_is_the_partition_hash_and_n_shards_1_takes_every_key(self):
        keys = [f"vessel-{i}" for i in range(50)]
        assert all(shard_index(key, n_shards=1) == 0 for key in keys)
        assert {shard_index(key, 4) for key in keys} == {0, 1, 2, 3}
        topic = Topic("raw", partitions=4)
        assert [shard_index(key, 4) for key in keys] == [
            topic.partition_for(Record(0.0, None, key=key)) for key in keys
        ]


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
