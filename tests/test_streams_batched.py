"""Equivalence properties of the batched broker fast paths.

The batched fast path ``Topic.publish_many`` promises *bit-identical
semantics* to per-record ``publish``: same logs, same offsets, same stats
counters. ``Consumer.poll`` is held to a model of its scan. These
hypothesis properties pin both against randomized workloads —
keyed/keyless mixes, retention trims, time-ordered and shuffled logs,
and the clocks a raw topic carries: NaN and ±inf among the numbers.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.streams import Consumer, Record, Topic

KEYS = [None, "a", "b", "vessel-42"]

#: (t, value, key) triples lifted into records.
record_lists = st.lists(
    st.tuples(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
        | st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(-1000, 1000),
        st.sampled_from(KEYS),
    ),
    max_size=60,
).map(lambda items: [Record(t, v, k) for t, v, k in items])


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


def clock(t: float) -> tuple:
    """The model's clock order: numbers by value, ±inf included, NaN last."""
    return (1, 0.0) if math.isnan(t) else (0, t)


class TestPollOrdering:
    @given(
        records=record_lists,
        partitions=st.integers(1, 4),
        poll_size=st.none() | st.integers(1, 25),
        time_ordered=st.booleans(),
    )
    @settings(max_examples=100)
    # one key on two partitions, published at t = 5, NaN, 3: delivered 3, 5, NaN
    @example(
        records=[Record(5.0, 0, "a"), Record(math.nan, 1, "a"), Record(3.0, 2, "a")],
        partitions=2, poll_size=None, time_ordered=False,
    )
    def test_each_batch_is_the_stable_time_offset_sort_of_its_slices(
        self, records, partitions, poll_size, time_ordered
    ):
        """Against a model of the scan: each poll takes, from a start
        partition that rotates past the one a ``max_messages`` cap ran out
        on, what each partition has left up to the budget; the batch is
        those slices, in scan order, stably sorted by ``(t, offset)`` with
        NaN clocks last; and every record is delivered exactly once."""
        if time_ordered:
            records = sorted(records, key=lambda r: clock(r.t))
        topic = Topic("t", partitions=partitions)
        topic.publish_many(records)
        consumer = Consumer(topic, "g")
        start, delivered = 0, []
        while True:
            lags = consumer.partition_lags()
            batch = consumer.poll(max_messages=poll_size)
            slices, budget = [], poll_size
            for i in range(partitions):
                part = (start + i) % partitions
                take = lags[part] if budget is None else min(lags[part], budget)
                if take:
                    first = topic.end_offsets()[part] - lags[part]
                    _, fetched = topic.read_records(part, first, take)
                    slices += [(clock(r.t), first + k, r) for k, r in enumerate(fetched)]
                    if budget is not None:
                        budget -= take
                        if budget == 0:
                            start = (part + 1) % partitions
                            break
            assert [id(r) for _, _, r in sorted(slices, key=lambda s: s[:2])] == [*map(id, batch)]
            if not batch:
                break
            delivered += batch
        assert sorted(map(id, delivered)) == sorted(map(id, records))
