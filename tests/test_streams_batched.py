"""Equivalence properties of the batched broker fast paths.

The batched fast path (``Topic.publish_many``, the merge-based
``Consumer.poll``) promises *bit-identical semantics* to the per-record
paths: same delivered records in the same order, same offsets, same
stats counters. These hypothesis properties pin that promise against
randomized workloads — keyed/keyless mixes, retention trims, time-ordered
and shuffled logs.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.streams.broker as broker_mod
from repro.streams import Consumer, Record, Topic

KEYS = [None, "a", "b", "vessel-42"]

#: (t, value, key) triples lifted into records.
record_lists = st.lists(
    st.tuples(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        st.integers(-1000, 1000),
        st.sampled_from(KEYS),
    ),
    max_size=60,
).map(lambda items: [Record(t, v, k) for t, v, k in items])


def _normalize(records):
    return [(r.t, r.value, r.key) for r in records]


class TestPublishManyEquivalence:
    @given(
        records=record_lists,
        partitions=st.integers(1, 4),
        retention=st.none() | st.integers(1, 16),
        chunk=st.integers(1, 17),
    )
    @settings(max_examples=120)
    def test_identical_logs_offsets_stats(self, records, partitions, retention, chunk):
        per_record = Topic("per-record", partitions=partitions, retention=retention)
        batched = Topic("batched", partitions=partitions, retention=retention)
        placed_a = [per_record.publish(r) for r in records]
        placed_b = []
        for i in range(0, len(records), chunk):
            placed_b.extend(batched.publish_many(records[i : i + chunk]))
        assert placed_b == placed_a
        assert batched.end_offsets() == per_record.end_offsets()
        for part in range(partitions):
            assert batched.read_records(part, 0) == per_record.read_records(part, 0)
        assert _topic_stats(batched) == _topic_stats(per_record)

    @given(records=record_lists, partitions=st.integers(1, 4))
    @settings(max_examples=60)
    def test_single_call_matches_per_record(self, records, partitions):
        per_record = Topic("per-record", partitions=partitions)
        batched = Topic("batched", partitions=partitions)
        placed_a = [per_record.publish(r) for r in records]
        placed_b = batched.publish_many(records)
        assert placed_b == placed_a
        assert batched.size() == per_record.size()


def _topic_stats(topic):
    s = topic.stats
    return (s.records_in, s.dropped)


class TestPollOrderingEquivalence:
    @given(
        records=record_lists,
        partitions=st.integers(1, 4),
        poll_size=st.none() | st.integers(1, 25),
        time_ordered=st.booleans(),
    )
    @settings(max_examples=100)
    def test_merge_fast_path_matches_sort_fallback(self, records, partitions, poll_size, time_ordered):
        if time_ordered:
            records = sorted(records, key=lambda r: r.t)
        fast_topic = Topic("fast", partitions=partitions)
        slow_topic = Topic("slow", partitions=partitions)
        fast_topic.publish_many(records)
        slow_topic.publish_many(records)
        fast = Consumer(fast_topic, "g")
        slow = Consumer(slow_topic, "g")
        out_fast = _drain(fast, poll_size)
        original = broker_mod._time_ordered
        broker_mod._time_ordered = lambda records: False  # force the sort fallback
        try:
            out_slow = _drain(slow, poll_size)
        finally:
            broker_mod._time_ordered = original
        assert out_fast == out_slow
        assert Counter(_normalize(out_fast)) == Counter(_normalize(records))


def _drain(consumer, poll_size):
    out = []
    while True:
        batch = consumer.poll(max_messages=poll_size)
        if not batch:
            break
        out.extend(batch)
    return out
