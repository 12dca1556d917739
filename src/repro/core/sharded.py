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
run is the equivalence oracle; the equivalence matrix drives both.

Observability: each run is one trace, a ``run`` root over the regions
``route``, ``shards`` (scatter, wait and decode — every replica's own
``run`` trace hangs under it), ``fold``, ``merge``, the global stages'
and ``publish``. The fold adds every shard's counters and histograms
into the layer-wide registry, per shard under ``shard.<i>.*`` and merged
under the bare name, and its gauges under ``shard.<i>.*`` only; every
count the layer reports is read back from there — the merged
:attr:`~ShardedRealtimeLayer.report` from the merged families,
:meth:`~ShardedRealtimeLayer.shard_reports` from the ``shard.<i>.``
ones. A replica rebuilt by a host restart starts a fresh registry and
the folds keep adding to the same families, so no count rolls back.
Next to them sit ``shard.count``, ``shard.<i>.setup_s`` (the host's
build seconds) and ``shard.balance`` (aggregate work over the slowest
shard's — the routing-balance number ``benchmarks/e2e`` reports as
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
from .realtime import EntityStages, Figure2Plane, GlobalStages, RealtimeReport, report_from


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
    prev_harvest: ObsHarvest | None = None

    def serve(
        self, shard: int, fixes: list[PositionFix], columns: FixColumns | None = None
    ) -> tuple[dict[str, list[Record]], ObsHarvest]:
        """Run one poll's fixes (and columns, if they came framed) through
        the replica: the records this run added per topic, and its
        cumulative harvest."""
        layer = self.layer
        layer.run(fixes, columns)
        current = harvest_obs(shard, layer.metrics, layer.events, layer.tracer)
        topics = {t: _drain_all(self.consumers[t]) for t in ALL_TOPICS}
        return topics, current


@dataclass(frozen=True, slots=True)
class _RealtimeShardSpec:
    """Picklable recipe for an :class:`EntityStages` shard replica.

    Hosted by either host of ``repro.streams.workers``: only the
    :class:`SystemConfig` crosses a process boundary, at spawn — the
    replica and everything stateful is built by the host, once, and
    served one request per poll through :meth:`_RealtimeReplica.serve`.

    A reply is ``(this run's new topic records, this run's delta
    harvest)`` — the harvest carries every count and the run's trace — and
    it travels the way its request came. Over the pipe both are the
    compact ``bytes`` frames of :mod:`repro.core.frames`: that poll's
    fixes as columns out; back, the derived topics by value and the raw
    and clean topics by reference to the request's rows, which
    ``encode_reply`` refuses (``ValueError`` → ``ShardWorkerError``)
    unless the raw topic holds exactly one record per request fix. An
    in-process caller hands over the fixes themselves and gets the tuple
    itself — no codec runs, which keeps the in-process layer an
    independent oracle for the frames.
    """

    config: SystemConfig

    def setup(self, shard: int) -> _RealtimeReplica:
        layer = EntityStages(self.config)
        consumers = {
            topic: layer.broker.consumer(topic, "merge") for topic in ALL_TOPICS
        }
        return _RealtimeReplica(layer=layer, consumers=consumers)

    def handle(self, shard: int, replica: _RealtimeReplica, request: Any) -> Any:
        framed = isinstance(request, bytes)
        fixes, columns = request, None
        if framed:
            # The worker's half of the codec, folded as shard.<i>.ipc.*
            # next to the parent's half (ShardedRealtimeLayer._observe_ipc).
            t0 = perf_counter()
            fixes, columns = decode_request(request)
            replica.layer.metrics.histogram("ipc.request_decode_s").observe(perf_counter() - t0)
        topics, current = replica.serve(shard, fixes, columns)
        reply: Any = (topics, current.delta(replica.prev_harvest))
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
    :attr:`report` reads layer-wide counters, and :attr:`metrics` /
    :meth:`system_metrics` expose the shard-annotated observability view.
    Its ``publish`` probe counts each merged poll once; a replica's own
    publish is a span of the replica's trace only.
    """

    _PROBED = ("route", "shards", "fold", "merge", "publish", *GlobalStages.REGIONS)

    def __init__(self, config: SystemConfig | None = None, cep_training_symbols: list[str] | None = None):
        # Its broker is the merged one: what the batch layer reads.
        super().__init__(config)
        cfg = self.config
        if cfg.n_shards < 1:
            raise ValueError("a sharded layer needs at least one shard")
        self.n_shards = cfg.n_shards
        #: Whether the replicas live in worker processes or in this one.
        self.use_worker_pool = cfg.worker_pool
        # The cross-entity stages run here, once, over the merged stream.
        self.globals = GlobalStages(cfg, self.metrics, self.events, cep_training_symbols)
        self.proximity, self.cep = self.globals.proximity, self.globals.cep
        self.dashboard, self.health = self.globals.dashboard, self.globals.health
        # Each shard's cumulative run wall, as its replica's last harvest
        # folded it.
        self._walls = [self.metrics.gauge(f"shard.{i}.realtime.wall_s") for i in range(self.n_shards)]
        self.metrics.gauge("shard.count", fn=lambda: float(self.n_shards))
        for i in range(self.n_shards):
            self.metrics.gauge(f"shard.{i}.setup_s", fn=lambda i=i: self._hosts[i].setup_s)
        self.metrics.gauge("shard.balance", fn=self.balance)
        # Replicas own every per-entity stage. Their hosts start last, so no
        # later step of this constructor can fail and strand a worker.
        self._hosts = shard_hosts(_RealtimeShardSpec(cfg), self.n_shards, self.use_worker_pool)
        #: The live replica layers when they are in-process; empty pooled.
        self.shards: list[EntityStages] = (
            [] if self.use_worker_pool else [host.state.layer for host in self._hosts]
        )

    @property
    def report(self) -> RealtimeReport:
        """Layer-wide cumulative counts: the per-entity stages folded from
        every shard, plus the global stages' own."""
        return report_from(self.metrics)

    def shard_reports(self) -> list[RealtimeReport]:
        """Per-shard cumulative reports, read from the folded
        ``shard.<i>.*`` families, wherever the replicas live."""
        return [report_from(self.metrics, f"shard.{i}.") for i in range(self.n_shards)]

    def shard_walls(self) -> list[float]:
        """Per-shard cumulative run walls (replica setup excluded)."""
        return [wall.value() for wall in self._walls]

    def shard_setups(self) -> list[float]:
        """Per-shard replica build seconds — the one-off cost the worker
        pool amortizes, reported apart from run walls on both paths."""
        return [host.setup_s for host in self._hosts]

    def balance(self) -> float:
        """Aggregate-over-slowest shard work ratio (ideal: ``n_shards``),
        with work measured in clean fixes routed to each shard."""
        counters = self.metrics.counters("shard.")
        counts = [counters.get(f"shard.{i}.op.clean.records_out", 0) for i in range(self.n_shards)]
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
        with self._poll() as trace:
            span = trace.start("route")
            routed: list[list[PositionFix]] = [[] for _ in range(self.n_shards)]
            shard_of: dict[str, int] = {}  # each distinct entity is hashed once per run
            for fix in fixes:
                entity_id = fix.entity_id
                shard = shard_of.get(entity_id)
                if shard is None:
                    shard = shard_of[entity_id] = self.shard_for(entity_id)
                routed[shard].append(fix)
            n_fixes = sum(map(len, routed))
            trace.done(span, n_fixes, n_fixes)
            # One request per shard through the shared scatter/gather; the
            # hosts differ only in what travels: compact frames to worker
            # processes, the fixes themselves to in-process replicas.
            shards = trace.start("shards")
            if self.use_worker_pool:
                replies = scatter_gather(
                    self._hosts,
                    self._request_frames(routed),
                    decode=lambda i, frame: self._decode_reply(i, frame, routed[i]),
                )
            else:
                replies = scatter_gather(self._hosts, routed)
            topics, deltas = zip(*replies)
            n_records = sum(len(records) for shard_topics in topics for records in shard_topics.values())
            trace.done(shards, n_fixes, n_records)
            # Replicas are long-lived, so what each run folds is the delta
            # against the shard's previous harvest; each shard's trace
            # hangs under this poll's ``shards`` span.
            span = trace.start("fold")
            fold_harvests(self.metrics, list(deltas), events=self.events, tracer=self.tracer, parent=shards)
            trace.done(span, 0, 0)
            # The canonical ``(t, key)`` stable merge of every shard topic.
            span = trace.start("merge")
            merged = {
                topic: merge_shard_outputs([shard_topics[topic] for shard_topics in topics])
                for topic in ALL_TOPICS
            }
            trace.done(span, n_records, n_records)
            # The global stages, fed the merged stream: e2e latency here
            # runs from the ingest stamp the shard replica wrote.
            proximity, detections = self.globals.see(trace, merged[TOPIC_CLEAN], merged[TOPIC_SYNOPSES])
            span = trace.start("publish")
            for links in proximity:
                merged[TOPIC_LINKS] += links
            merged[TOPIC_EVENTS] += detections
            n = self._publish(merged)
            trace.done(span, n, n)
            self.globals.evaluate(trace)
        report = self.report
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
        return topics, reply.harvest

    def _observe_ipc(self, shard: int, leaf: str, value: float) -> None:
        self.metrics.histogram(f"shard.{shard}.ipc_{leaf}").observe(value)

    def close(self) -> None:
        """Shut pooled shard workers down cleanly (no-op in-process)."""
        for host in self._hosts:
            host.close()

    def system_metrics(self) -> dict[str, Any]:
        """The :class:`GlobalStages` view plus per-shard counts, read from
        the folded ``shard.<i>.*`` families."""
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
