"""Sharded real-time layer: N entity-partitioned Figure-2 replicas.

The multi-core deployment of :class:`~repro.core.realtime.RealtimeLayer`
and the one sharded executor of the repo — shard routing and merge from
``repro.streams.sharding``, the shard hosts and their scatter/gather
from ``repro.streams.workers``: the surveillance stream is partitioned
by ``entity_id`` across ``SystemConfig.n_shards`` replicas of the
per-entity half of Figure 2 (:class:`~repro.core.realtime.EntityStages`),
each owning partition-local state. The cross-entity half
(:class:`~repro.core.realtime.GlobalStages`: proximity, complex event
recognition, the dashboard) cannot be partitioned that way — per-shard
proximity would silently miss every cross-shard pair — and runs once,
here, on the *merged* stream.

The merge is canonical: per-shard topic streams are combined with the
``(t, key)`` stable merge (``merge_shard_outputs``), so the merged
stream — and therefore every global stage and the merged broker topics
— is *identical* for ``n_shards=1`` and ``n_shards=N``. The single-shard
run is the equivalence oracle; the shard-equivalence tests drive both.

Observability: each shard's counters surface as ``shard.<i>.*`` gauges
on the layer-wide registry, next to a ``shard.count`` and a
``shard.balance`` gauge (aggregate work over the slowest shard's — the
routing-balance number ``benchmarks/e2e`` reports as
``streams.shard_balance``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterable, Iterator

from ..geo import FixColumns, PositionFix
from ..obs import ObsHarvest, fold_harvests, harvest_obs
from ..streams import (
    Consumer,
    Record,
    merge_shard_outputs,
    scatter_gather,
    shard_hosts,
    shard_index,
)

from .config import (
    ALL_TOPICS,
    SystemConfig,
    TOPIC_CLEAN,
    TOPIC_EVENTS,
    TOPIC_LINKS,
    TOPIC_SYNOPSES,
)
from .frames import decode_reply, decode_request, encode_reply, encode_request
from .realtime import EntityStages, Figure2Plane, GlobalStages, RealtimeReport


def _drain_all(consumer: Consumer) -> list[Record]:
    """Everything a consumer group has not seen yet, in delivery order."""
    out: list[Record] = []
    while True:
        batch = consumer.poll()
        if not batch:
            break
        out.extend(batch)
    return out


@dataclass(slots=True)
class _RealtimeReplica:
    """One shard's live state: the replica layer, its merge consumers,
    and the delta-harvest bookkeeping."""

    layer: EntityStages
    # Group offsets live on the Consumer object, not in the broker, so
    # these are as long-lived as the layer: each run drains only what
    # the previous one has not.
    consumers: dict[str, Consumer]
    setup_s: float
    prev_harvest: ObsHarvest | None = None

    def serve(
        self, shard: int, fixes: list[PositionFix], columns: FixColumns | None = None
    ) -> tuple[RealtimeReport, dict[str, list[Record]], float, ObsHarvest]:
        """Run one poll's fixes (and columns, if they came framed) through
        the replica: its cumulative report, the records this run added per
        topic, its cumulative run wall, and its cumulative harvest."""
        layer = self.layer
        layer.run(fixes, columns)
        wall_s = layer.metrics.gauge("realtime.wall_s").value()
        current = harvest_obs(
            shard,
            layer.metrics,
            layer.events,
            layer.tracer,
            wall_seconds=wall_s,
            setup_seconds=self.setup_s,
        )
        topics = {t: _drain_all(self.consumers[t]) for t in ALL_TOPICS}
        return layer.report, topics, wall_s, current


@dataclass(frozen=True, slots=True)
class _RealtimeShardSpec:
    """Picklable recipe for an :class:`EntityStages` shard replica.

    Hosted by either host of ``repro.streams.workers``: only the
    :class:`SystemConfig` crosses a process boundary, at spawn — the
    replica and everything stateful is built by the host, once, and
    served one request per poll through :meth:`_RealtimeReplica.serve`.

    A reply is ``(cumulative report, this run's new topic records,
    cumulative run wall, this run's delta harvest)``, and it travels the
    way its request came. Over the pipe both are the compact ``bytes``
    frames of :mod:`repro.core.frames`: that poll's fixes as columns
    out; back, the derived topics by value and the raw and clean topics
    by reference to the request's rows, which ``encode_reply`` refuses
    (``ValueError`` → ``ShardWorkerError``) unless the raw topic holds
    exactly one record per request fix. An in-process caller hands over
    the fixes themselves and gets the tuple itself — no codec runs,
    which keeps the in-process layer an independent oracle for the
    frames.
    """

    config: SystemConfig

    def setup(self, shard: int) -> _RealtimeReplica:
        t0 = perf_counter()
        layer = EntityStages(self.config)
        consumers = {
            topic: layer.broker.consumer(topic, "merge") for topic in ALL_TOPICS
        }
        return _RealtimeReplica(
            layer=layer, consumers=consumers, setup_s=perf_counter() - t0
        )

    def handle(self, shard: int, replica: _RealtimeReplica, request: Any) -> Any:
        framed = isinstance(request, bytes)
        fixes, columns = request, None
        if framed:
            # The worker's half of the codec, folded as shard.<i>.ipc.*
            # next to the parent's half (ShardedRealtimeLayer._observe_ipc).
            t0 = perf_counter()
            fixes, columns = decode_request(request)
            replica.layer.metrics.histogram("ipc.request_decode_s").observe(perf_counter() - t0)
        report, topics, wall_s, current = replica.serve(shard, fixes, columns)
        reply: Any = (report, topics, wall_s, current.delta(replica.prev_harvest))
        if framed:
            reply = encode_reply(fixes, *reply)
        # Committed only once the reply exists: a refused frame's obs
        # delta rides the next successful reply instead of vanishing.
        replica.prev_harvest = current
        return reply


class ShardedRealtimeLayer(Figure2Plane):
    """Entity-sharded real-time layer with a merged global stage.

    Drop-in for :class:`RealtimeLayer` where it matters downstream: after
    :meth:`run`, :attr:`broker` holds the five Figure-2 topics with the
    canonically merged streams (the batch layer consumes them unchanged),
    :attr:`report` holds layer-wide counters, and :attr:`metrics` /
    :meth:`system_metrics` expose the shard-annotated observability view.
    """

    def __init__(self, config: SystemConfig | None = None, cep_training_symbols: list[str] | None = None):
        # Its broker is the merged one: what the batch layer reads.
        super().__init__(config)
        cfg = self.config
        if cfg.n_shards < 1:
            raise ValueError("a sharded layer needs at least one shard")
        self.n_shards = cfg.n_shards
        #: Whether the replicas live in worker processes or in this one.
        self.use_worker_pool = cfg.worker_pool
        # Each shard's cumulative report and run wall, as of its last reply.
        self._shard_reports = [RealtimeReport() for _ in range(self.n_shards)]
        self._shard_walls = [0.0] * self.n_shards
        # The cross-entity stages run here, once, over the merged stream.
        # Its totals accumulate across runs like the replicas' reports do.
        self.globals = GlobalStages(cfg, self.metrics, self.events, RealtimeReport(), cep_training_symbols)
        self.proximity, self.cep = self.globals.proximity, self.globals.cep
        self.dashboard, self.health = self.globals.dashboard, self.globals.health
        for i in range(self.n_shards):
            self._register_shard_gauges(i)
        self.metrics.gauge("shard.count", fn=lambda: float(self.n_shards))
        self.metrics.gauge("shard.balance", fn=self.balance)
        self.report = RealtimeReport()
        # Replicas own every per-entity stage. Their hosts start last, so no
        # later step of this constructor can fail and strand a worker.
        self._hosts = shard_hosts(_RealtimeShardSpec(cfg), self.n_shards, self.use_worker_pool)
        #: The live replica layers when they are in-process; empty pooled.
        self.shards: list[EntityStages] = (
            [] if self.use_worker_pool else [host.state.layer for host in self._hosts]
        )

    def _register_shard_gauges(self, i: int) -> None:
        base = f"shard.{i}"
        self.metrics.gauge(f"{base}.raw_fixes", fn=lambda i=i: float(self.shard_reports()[i].raw_fixes))
        self.metrics.gauge(f"{base}.clean_fixes", fn=lambda i=i: float(self.shard_reports()[i].clean_fixes))
        self.metrics.gauge(f"{base}.critical_points", fn=lambda i=i: float(self.shard_reports()[i].critical_points))
        self.metrics.gauge(f"{base}.links", fn=lambda i=i: float(self.shard_reports()[i].links))
        self.metrics.gauge(f"{base}.wall_s", fn=lambda i=i: self.shard_walls()[i])

    def shard_reports(self) -> list[RealtimeReport]:
        """Per-shard cumulative reports, wherever the replicas live."""
        return list(self._shard_reports)

    def shard_walls(self) -> list[float]:
        """Per-shard cumulative run walls (replica setup excluded)."""
        return list(self._shard_walls)

    def shard_setups(self) -> list[float]:
        """Per-shard replica build seconds — the one-off cost the worker
        pool amortizes, reported apart from run walls on both paths."""
        return [host.setup_s for host in self._hosts]

    def balance(self) -> float:
        """Aggregate-over-slowest shard work ratio (ideal: ``n_shards``),
        with work measured in clean fixes routed to each shard."""
        counts = [r.clean_fixes for r in self.shard_reports()]
        slowest = max(counts, default=0)
        if slowest <= 0:
            return 0.0
        return sum(counts) / slowest

    def shard_for(self, entity_id: str) -> int:
        """Which shard an entity's whole trajectory lives on."""
        return shard_index(entity_id, self.n_shards)

    def run(self, fixes: Iterable[PositionFix]) -> RealtimeReport:
        """Route, run every replica, then merge and run the global stages."""
        self.events.emit("info", "realtime", "sharded_run_started", shards=self.n_shards)
        routed: list[list[PositionFix]] = [[] for _ in range(self.n_shards)]
        shard_of: dict[str, int] = {}  # each distinct entity is hashed once per run
        for fix in fixes:
            entity_id = fix.entity_id
            shard = shard_of.get(entity_id)
            if shard is None:
                shard = shard_of[entity_id] = self.shard_for(entity_id)
            routed[shard].append(fix)
        # One request per shard through the shared scatter/gather; the
        # hosts differ only in what travels: compact frames to worker
        # processes, the fixes themselves to in-process replicas.
        if self.use_worker_pool:
            replies = scatter_gather(
                self._hosts,
                self._request_frames(routed),
                decode=lambda i, frame: self._decode_reply(i, frame, routed[i]),
            )
        else:
            replies = scatter_gather(self._hosts, routed)
        reports, topics, walls, deltas = zip(*replies)
        self._shard_reports, self._shard_walls = list(reports), list(walls)
        # Counters land under ``shard.<i>.*`` and as merged aggregate
        # families (exactly equal to the ``n_shards=1`` oracle's); shard
        # events merge into :attr:`events` by wall timestamp, shard-tagged;
        # shard traces are re-parented under one synthetic ``sharded.run``
        # root. Replicas are long-lived, so what each run folds is the
        # delta against the shard's previous harvest — repeated runs
        # accumulate instead of double-counting.
        fold_harvests(self.metrics, list(deltas), events=self.events, tracer=self.tracer)
        # The canonical ``(t, key)`` stable merge of every shard topic.
        merged = {
            topic: merge_shard_outputs([shard_topics[topic] for shard_topics in topics])
            for topic in ALL_TOPICS
        }
        # The global stages, fed the merged stream: e2e latency here runs
        # from the ingest stamp the shard replica wrote (record provenance)
        # to merged consumption.
        self.globals.clean_fixes(merged[TOPIC_CLEAN])
        for proximity_links in self.globals.critical_points(merged[TOPIC_SYNOPSES]):
            merged[TOPIC_LINKS] += proximity_links
        merged[TOPIC_EVENTS] += self.globals.recognise()
        for topic, records in merged.items():
            if records:
                self.broker.publish_many(topic, records)
        # Layer-wide cumulative counters: the per-entity stages summed
        # across shards, plus the global stages' own totals.
        self.report = report = sum(reports, self.globals.totals)
        self.health.evaluate()
        self.events.emit(
            "info", "realtime", "sharded_run_finished",
            shards=self.n_shards, raw=report.raw_fixes, clean=report.clean_fixes,
            critical_points=report.critical_points,
        )
        return report

    def _request_frames(self, routed: list[list[PositionFix]]) -> Iterator[bytes]:
        """Each shard's request as a :mod:`repro.core.frames` frame, built
        as the scatter asks for it. What the boundary costs is recorded
        per shard and per run under ``shard.<i>.ipc_*``."""
        for i, sub_stream in enumerate(routed):
            t0 = perf_counter()
            frame = encode_request(sub_stream)
            self._observe_ipc(i, "encode_s", perf_counter() - t0)
            self._observe_ipc(i, "req_bytes", len(frame))
            yield frame

    def _decode_reply(self, shard: int, frame: bytes, sub_stream: list[PositionFix]):
        """A worker's reply frame as the tuple an in-process replica hands
        over: raw and clean records come back by reference to the request
        and are rebuilt around this process's own fixes."""
        t0 = perf_counter()
        reply, topics = decode_reply(frame, sub_stream)
        self._observe_ipc(shard, "decode_s", perf_counter() - t0)
        self._observe_ipc(shard, "reply_bytes", len(frame))
        return reply.report, topics, reply.wall_s, reply.harvest

    def _observe_ipc(self, shard: int, leaf: str, value: float) -> None:
        self.metrics.histogram(f"shard.{shard}.ipc_{leaf}").observe(value)

    def close(self) -> None:
        """Shut pooled shard workers down cleanly (no-op in-process)."""
        for host in self._hosts:
            host.close()

    def system_metrics(self) -> dict[str, Any]:
        """The :class:`GlobalStages` view plus per-shard reports."""
        snap = self.globals.system_metrics()
        snap["shards"] = [
            {
                "raw_fixes": r.raw_fixes,
                "clean_fixes": r.clean_fixes,
                "critical_points": r.critical_points,
                "links": r.links,
            }
            for r in self.shard_reports()
        ]
        return snap
