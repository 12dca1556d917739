"""Tests for the in-process broker (Kafka surrogate) and the time merge."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streams.broker import Broker, Consumer, Topic, _stable_hash
from repro.streams.record import Record, merge_by_time


def recs(*pairs, key=None):
    return [Record(t, v, key) for t, v in pairs]


def key_for_partition(partitions: int, partition: int) -> str:
    """A key that hashes onto the requested partition."""
    return next(k for k in (f"key-{i}" for i in range(10_000)) if _stable_hash(k) % partitions == partition)


class TestTopic:
    def test_publish_and_size(self):
        t = Topic("raw")
        t.publish(Record(0.0, "a"))
        t.publish(Record(1.0, "b"))
        assert t.size() == 2

    def test_partition_by_key_is_stable(self):
        t = Topic("raw", partitions=4)
        p1 = t.partition_for(Record(0.0, "x", key="vessel-7"))
        p2 = t.partition_for(Record(9.0, "y", key="vessel-7"))
        assert p1 == p2

    def test_keyless_round_robin(self):
        t = Topic("raw", partitions=2)
        parts = {t.publish(Record(float(i), i))[0] for i in range(4)}
        assert parts == {0, 1}

    def test_retention_drops_oldest(self):
        t = Topic("raw", retention=3)
        for i in range(5):
            t.publish(Record(float(i), i))
        assert t.size() == 3
        first, records = t.read_records(0, 0)
        assert [r.value for r in records] == [2, 3, 4]
        assert first == 2  # offsets survive trimming

    def test_read_bad_partition(self):
        with pytest.raises(ValueError):
            Topic("raw").read_records(1, 0)

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            Topic("raw", partitions=0)


class TestConsumer:
    def test_poll_in_time_order(self):
        broker = Broker()
        topic = broker.create_topic("raw", partitions=3)
        for i, t in enumerate([5.0, 1.0, 3.0]):
            topic.publish(Record(t, i, key=f"k{i}"))
        consumer = broker.consumer("raw", "g1")
        values = [r.t for r in consumer.poll()]
        assert values == sorted(values)

    def test_poll_advances_offsets(self):
        broker = Broker()
        topic = broker.create_topic("raw")
        topic.publish(Record(0.0, "a"))
        c = broker.consumer("raw", "g1")
        assert len(c.poll()) == 1
        assert c.poll() == []
        topic.publish(Record(1.0, "b"))
        assert [r.value for r in c.poll()] == ["b"]

    def test_independent_groups(self):
        broker = Broker()
        topic = broker.create_topic("raw")
        topic.publish(Record(0.0, "a"))
        c1 = broker.consumer("raw", "realtime")
        c2 = broker.consumer("raw", "batch")
        assert len(c1.poll()) == 1
        assert len(c2.poll()) == 1  # batch layer sees the same data

    def test_lag(self):
        broker = Broker()
        topic = broker.create_topic("raw")
        c = broker.consumer("raw", "g")
        topic.publish(Record(0.0, "a"))
        topic.publish(Record(1.0, "b"))
        assert c.lag() == 2
        c.poll()
        assert c.lag() == 0


class TestPollFairness:
    """Regression: a capped poll must not let busy partitions starve the rest."""

    def _skewed_topic(self):
        topic = Topic("raw", partitions=3)
        keys = {p: key_for_partition(3, p) for p in range(3)}
        # A few records wait on partitions 1 and 2...
        for p in (1, 2):
            for i in range(5):
                topic.publish(Record(float(i), f"p{p}-{i}", key=keys[p]))
        return topic, keys

    def test_rotation_drains_all_partitions_under_sustained_load(self):
        topic, keys = self._skewed_topic()
        consumer = Consumer(topic, "g")
        # ...while partition 0 receives 10 fresh records per poll round:
        # exactly the poll budget, so a scan that always starts at
        # partition 0 never gets past it.
        for round_no in range(20):
            for i in range(10):
                topic.publish(Record(float(round_no * 10 + i), "x", key=keys[0]))
            consumer.poll(max_messages=10)
        lags = consumer.partition_lags()
        assert lags[1] == 0 and lags[2] == 0, f"partitions 1-2 starved: {lags}"

    def test_scan_from_zero_starves_other_partitions(self):
        """The old algorithm (always scan from partition 0) starves 1-2 forever."""
        topic, keys = self._skewed_topic()
        offsets = [0, 0, 0]

        def poll_scan_from_zero(max_messages):
            budget = max_messages
            for part in range(topic.partitions):
                first, msgs = topic.read_records(part, offsets[part], budget)
                if msgs:
                    offsets[part] = first + len(msgs)
                    budget -= len(msgs)
                    if budget <= 0:
                        break

        for round_no in range(20):
            for i in range(10):
                topic.publish(Record(float(round_no * 10 + i), "x", key=keys[0]))
            poll_scan_from_zero(10)
        ends = topic.end_offsets()
        lags = [end - off for end, off in zip(ends, offsets)]
        assert lags[1] == 5 and lags[2] == 5  # never touched: the starvation bug

    @given(
        partitions=st.integers(1, 4),
        keys=st.lists(
            st.one_of(st.none(), st.text(alphabet="abcdef", min_size=1, max_size=3)),
            max_size=60,
        ),
        max_messages=st.one_of(st.none(), st.integers(1, 7)),
    )
    def test_poll_delivers_exactly_once(self, partitions, keys, max_messages):
        """Any poll cap eventually delivers every record exactly once, across all partitions."""
        topic = Topic("raw", partitions=partitions)
        for i, key in enumerate(keys):
            topic.publish(Record(float(i % 5), i, key=key))
        consumer = Consumer(topic, "g")
        seen: list[int] = []
        while True:
            batch = consumer.poll(max_messages)
            if not batch:
                break
            seen.extend(r.value for r in batch)
        assert sorted(seen) == list(range(len(keys)))
        assert consumer.lag() == 0


class TestBroker:
    def test_duplicate_topic_rejected(self):
        b = Broker()
        b.create_topic("x")
        with pytest.raises(ValueError):
            b.create_topic("x")

    def test_unknown_topic(self):
        with pytest.raises(KeyError):
            Broker().topic("nope")


class TestMergeByTime:
    def test_merge_by_time(self):
        s1 = recs((0.0, "a"), (10.0, "c"))
        s2 = recs((5.0, "b"), (15.0, "d"))
        merged = [r.value for r in merge_by_time(s1, s2)]
        assert merged == ["a", "b", "c", "d"]

    def test_merge_handles_empty(self):
        assert list(merge_by_time([], recs((0.0, "a")))) == recs((0.0, "a"))


class TestMergeByTimeStability:
    def test_equal_timestamps_favor_lower_stream(self):
        a = recs((1.0, "a1"), (2.0, "a2"))
        b = recs((1.0, "b1"), (2.0, "b2"))
        merged = [r.value for r in merge_by_time(a, b)]
        assert merged == ["a1", "b1", "a2", "b2"]

    def test_per_stream_order_preserved_within_ties(self):
        a = recs((5.0, "a1"), (5.0, "a2"), (5.0, "a3"))
        b = recs((5.0, "b1"), (5.0, "b2"))
        merged = [r.value for r in merge_by_time(a, b)]
        assert [v for v in merged if v.startswith("a")] == ["a1", "a2", "a3"]
        assert [v for v in merged if v.startswith("b")] == ["b1", "b2"]

    def test_unorderable_values_never_compared(self):
        """The heap orders on (t, idx) alone: values with no __lt__ are fine
        even on timestamp ties (the dead tiebreak counter is gone)."""
        a = [Record(1.0, object()), Record(1.0, object())]
        b = [Record(1.0, object())]
        assert len(list(merge_by_time(a, b))) == 3
