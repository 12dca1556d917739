"""Output checks and failure accounting of the end-to-end benchmark.

A repetition is correct when its *signature* — per-topic record counts
and ``(t, key)`` digests, report counters, triples, rows per query —
equals repetition 0's, and when the pipeline's conservation laws hold.
Digests are printed for reference and never compared to a committed
golden, so a later behaviour fix is not blocked by the benchmark.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Iterator

from repro.core.config import TOPIC_CLEAN, TOPIC_EVENTS, TOPIC_LINKS, TOPIC_RAW, TOPIC_SYNOPSES

TOPICS = (TOPIC_RAW, TOPIC_CLEAN, TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS)
_REPORT_COUNTERS = (
    "raw_fixes", "clean_fixes", "critical_points", "area_events",
    "links", "proximity_links", "cep_detections", "cep_forecasts",
)


class Tally:
    """Operations attempted and failed: polls, ingests, queries, checks."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Count one operation; an exception counts it failed and propagates."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        try:
            yield
        except Exception as exc:  # reprolint: disable=hygiene — any failure of the operation is counted, then re-raised
            self._fail(kind, repr(exc))
            raise

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted["check"] = self.attempted.get("check", 0) + 1
        if not ok:
            self._fail("check", f"{name}: {detail}")
        return ok

    def _fail(self, kind: str, message: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def drain(consumer) -> list:
    """Everything a consumer group has not seen yet, in delivery order."""
    out: list = []
    while batch := consumer.poll():
        out.extend(batch)
    return out


def topic_signature(broker) -> dict[str, dict[str, Any]]:
    """Count and ``(t, key)`` digest of each Figure-2 topic, partition by partition."""
    out = {}
    for name in TOPICS:
        topic = broker.topic(name)
        digest = hashlib.blake2b(digest_size=8)
        count = 0
        for partition in range(topic.partitions):
            _, records = topic.read_records(partition, 0)
            count += len(records)
            digest.update("\n".join(f"{r.t!r}|{r.key}" for r in records).encode())
        out[name] = {"count": count, "digest": digest.hexdigest()}
    return out


def signature(realtime, batch, query_rows: list[int]) -> dict[str, Any]:
    """What one repetition produced, reduced to comparable numbers."""
    report = realtime.report
    return {
        "topics": topic_signature(realtime.broker),
        "report": {name: getattr(report, name) for name in _REPORT_COUNTERS}
        | {"dropped": report.quality.dropped},
        "batch": {
            "synopsis_points": batch.report.synopsis_points,
            "triples": batch.report.triples,
            "anchored_subjects": batch.report.anchored_subjects,
        },
        "query_rows": query_rows,
    }


def check_conservation(tally: Tally, sig: dict[str, Any]) -> None:
    """raw = clean + dropped; every critical point reaches the topic and the KG."""
    report, topics = sig["report"], sig["topics"]
    tally.check(
        "raw = clean + dropped",
        report["raw_fixes"] == report["clean_fixes"] + report["dropped"],
        f"{report['raw_fixes']} != {report['clean_fixes']} + {report['dropped']}",
    )
    tally.check(
        "raw topic = raw fixes",
        topics[TOPIC_RAW]["count"] == report["raw_fixes"],
        f"{topics[TOPIC_RAW]['count']} != {report['raw_fixes']}",
    )
    tally.check(
        "synopses topic = critical points",
        topics[TOPIC_SYNOPSES]["count"] == report["critical_points"],
        f"{topics[TOPIC_SYNOPSES]['count']} != {report['critical_points']}",
    )
    tally.check(
        "batch synopsis points = synopses topic",
        sig["batch"]["synopsis_points"] == topics[TOPIC_SYNOPSES]["count"],
        f"{sig['batch']['synopsis_points']} != {topics[TOPIC_SYNOPSES]['count']}",
    )


def check_same(tally: Tally, name: str, got: Any, want: Any) -> None:
    """One equality check; on mismatch name the first differing key."""
    if got == want:
        tally.check(name, True)
        return
    detail = f"{got!r} != {want!r}"
    if isinstance(got, dict) and isinstance(want, dict):
        for key in want:
            if got.get(key) != want[key]:
                detail = f"[{key}] {got.get(key)!r} != {want[key]!r}"
                break
    tally.check(name, False, detail[:300])
