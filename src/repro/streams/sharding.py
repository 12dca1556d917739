"""Sharded execution substrate: N broker/pipeline replicas behind one facade.

ROADMAP item 1: the broker and the pipeline runner are single-threaded,
so Figure-2 throughput is capped by one core. This module partitions a
stream *by key* across ``n_shards`` independent shards — each shard is a
full :class:`~repro.streams.broker.Broker` / :class:`~repro.streams.pipeline.Pipeline`
replica with partition-local operator state (KeyBy, windows, CEP
automata, per-entity predictors all key their state, so a key never
needs to see another shard) — and merges per-shard outputs and
watermarks back into one deterministic stream.

Correctness story (the same twin discipline as ``vectorized=False``):

* **routing** — a key is assigned to ``fnv1a(key) % n_shards``, the same
  deterministic hash topics use for partitions; keyless records
  round-robin. All records of one key land on one shard, so every keyed
  operator sees exactly the per-key subsequence it would see unsharded.
* **incremental runs** — each shard advances through a sequence of
  ``flush=False`` pipeline runs (one per poll); the stream-closing final
  watermark is emitted once per shard, at :meth:`ShardedPipeline.finish`.
  A shard merge is exactly a sequence of incremental runs, which is why
  the poll-boundary watermark semantics fixed in ``drain_consumer`` are
  the prerequisite for this module. Each run also folds the shards'
  per-run **delta** obs harvests, which accumulate to exactly the
  counters one harvest at the end would report.
* **min-watermark merge** — the merged stream's event-time progress is
  ``min`` over the shards' assigner watermarks
  (:meth:`ShardedPipeline.min_watermark`), the standard multi-input
  alignment rule; merged outputs are ordered by ``(t, key)`` with each
  shard's per-key order preserved (stable sort), which reproduces the
  single-shard emission order for keyed outputs.
* **oracle** — ``n_shards=1`` routes everything to replica 0 in arrival
  order, so the single-shard path *is* the unsharded pipeline; the
  equivalence tests drive both and assert identical output.

There is one executor: every run is one request per shard through
:func:`~repro.streams.workers.scatter_gather`, served by the same
:class:`_PipelineWorkerSpec` wherever the replica lives. ``worker_pool``
only picks the host — inline in this process (the default, and the
deterministic oracle) or one long-lived worker process per shard
(``repro.streams.workers``) — shards share nothing, so the outputs are
identical, only the wall clock changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from .broker import _stable_hash
from .pipeline import Pipeline, WatermarkAssigner
from .record import Record, StreamElement, Watermark
from .workers import DEFAULT_REQUEST_TIMEOUT_S, scatter_gather, shard_hosts

#: Builds one fresh pipeline replica; must be a module-level callable for
#: ``worker_pool=True`` (workers build their own replica, nothing with
#: operator state ever crosses the process boundary).
PipelineFactory = Callable[[], Pipeline]

#: Builds one fresh watermark assigner per shard (or None for none).
AssignerFactory = Callable[[], WatermarkAssigner]

# The observability plane (``obs=`` on ShardedPipeline / run_sharded) is
# duck-typed on purpose: the layering DAG forbids streams -> obs (obs
# instruments streams from the outside), so this module only relies on
# the protocol below — implemented by repro.obs.harvest.ShardedObsPlane:
#
#   obs.worker                      picklable per-shard recipe, with
#     .setup(shard, pipeline) -> s    shard-local obs state (parent or worker
#                                     process; instruments the replica)
#     .harvest(shard, s, wall,        picklable cumulative harvest of that
#              setup_seconds=...)       state, with .delta(previous); replica
#                                       build cost rides beside the wall,
#                                       never inside it
#   obs.fold(harvests)              parent-side merge, called once per run
#
# Only ``obs.worker`` ever crosses the process boundary.


def shard_index(key: str, n_shards: int) -> int:
    """Deterministic shard assignment of a key (FNV-1a, like partitions)."""
    return _stable_hash(key) % n_shards


class ShardRouter:
    """Routes stream elements to shards: keyed by hash, keyless round-robin.

    Watermarks are *broadcast* — event-time progress is global, every
    shard must observe it or its windows would never close.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("a sharded stream needs at least one shard")
        self.n_shards = n_shards
        self._keyless = 0

    def shard_for(self, record: Record) -> int:
        """The shard one record lands on (advances the round-robin cursor)."""
        if record.key is not None:
            return shard_index(record.key, self.n_shards)
        shard = self._keyless % self.n_shards
        self._keyless += 1
        return shard

    def route(self, elements: Iterable[StreamElement]) -> list[list[StreamElement]]:
        """Split an element stream into per-shard streams, order-preserving."""
        shards: list[list[StreamElement]] = [[] for _ in range(self.n_shards)]
        for el in elements:
            if isinstance(el, Watermark):
                for shard in shards:
                    shard.append(el)
            else:
                shards[self.shard_for(el)].append(el)
        return shards


def merge_shard_outputs(per_shard: Sequence[list[Record]]) -> list[Record]:
    """Merge per-shard output lists into one ``(t, key)``-ordered stream.

    The sort is stable, and all records of one key come from one shard in
    that shard's emission order — so per-key subsequences are preserved
    exactly, and same-``(t, key)`` runs keep their shard-local order. For
    keyed streams this reproduces the single-shard window emission order
    (windows fire sorted by ``(start, key)``).
    """
    merged = [record for outputs in per_shard for record in outputs]
    merged.sort(key=lambda r: (r.t, r.key or ""))
    return merged


@dataclass(slots=True)
class _PipelineReplica:
    """One pipeline shard's live state: built once by its host, reused per run."""

    pipeline: Pipeline
    assigner: WatermarkAssigner | None
    obs_state: Any
    setup_s: float
    prev_harvest: Any = None


@dataclass(frozen=True, slots=True)
class _PipelineWorkerSpec:
    """Picklable recipe for a pipeline shard replica (a
    :class:`~repro.streams.workers.WorkerSpec`).

    Holds only module-level factories and the obs plane's picklable
    ``worker`` recipe — the live pipeline, assigner and registries exist
    solely where the host builds them.
    """

    factory: PipelineFactory
    watermark_factory: AssignerFactory | None = None
    obs_worker: Any = None

    def setup(self, shard: int) -> _PipelineReplica:
        t0 = perf_counter()
        pipeline = self.factory()
        obs_state = (
            self.obs_worker.setup(shard, pipeline) if self.obs_worker is not None else None
        )
        assigner = (
            self.watermark_factory() if self.watermark_factory is not None else None
        )
        return _PipelineReplica(
            pipeline=pipeline,
            assigner=assigner,
            obs_state=obs_state,
            setup_s=perf_counter() - t0,
        )

    def handle(self, shard: int, replica: _PipelineReplica, request: Any) -> dict[str, Any]:
        kind = request[0]
        if kind == "run":
            _, elements, batch_size = request
            out = replica.pipeline.run(
                elements, watermarks=replica.assigner, flush=False, batch_size=batch_size
            )
        elif kind == "finish":
            out = []
            if replica.assigner is not None:
                wm = replica.assigner.final_watermark()
                out.extend(r for r in replica.pipeline.push(wm) if isinstance(r, Record))
            out.extend(replica.pipeline.flush())
        else:
            raise ValueError(f"unknown pipeline request {kind!r}")
        harvest = None
        if self.obs_worker is not None:
            current = self.obs_worker.harvest(
                shard,
                replica.obs_state,
                replica.pipeline.wall_seconds,
                setup_seconds=replica.setup_s,
            )
            harvest = current.delta(replica.prev_harvest)
            replica.prev_harvest = current
        return {
            "records": out,
            "wall_s": replica.pipeline.wall_seconds,
            "records_processed": replica.pipeline.records_processed,
            "watermark": (
                replica.assigner.current_watermark()
                if replica.assigner is not None
                else -math.inf
            ),
            "harvest": harvest,
        }


@dataclass(slots=True)
class _ShardAccount:
    """Parent-side view of one shard's cumulative accounting."""

    wall_s: float = 0.0
    records: int = 0
    watermark: float = -math.inf


class ShardedPipeline:
    """N pipeline replicas with per-shard watermarks and a merged output.

    Built from factories so every shard owns fresh operator state. Runs
    are incremental: each :meth:`run` call is a ``flush=False`` pipeline
    run per shard (the poll-boundary semantics), and :meth:`finish`
    closes every shard — final watermark, then operator flush — and
    returns the merged tail. :meth:`run_to_end` is the one-shot
    convenience combining both; :meth:`reset` re-arms for a new stream.

    ``worker_pool`` picks where the replicas live, nothing else: inline
    in this process (``False``, the default and the byte-identical
    determinism oracle) or one long-lived worker process each
    (``True``). Pooled replicas persist across runs, so repeated small
    runs (the realtime serving pattern) pay IPC only, never fork or
    rebuild; the factories must then be module-level callables and the
    record values picklable. Use as a context manager (or call
    :meth:`close`) so worker processes never outlive the stream.

    ``obs`` takes the duck-typed plane of the module comment: each run
    folds the shards' per-run **delta** harvests.

    ``request_timeout_s`` bounds every wait for a worker's reply: a
    hung-but-alive worker surfaces as
    :class:`~repro.streams.workers.ShardWorkerDied` instead of wedging
    the parent, and :meth:`restart_shard` recovers it. ``None`` waits
    without bound.
    """

    def __init__(
        self,
        factory: PipelineFactory,
        n_shards: int,
        watermark_factory: AssignerFactory | None = None,
        obs: Any = None,
        worker_pool: bool = False,
        request_timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
    ):
        if n_shards < 1:
            raise ValueError("a sharded pipeline needs at least one shard")
        self.n_shards = n_shards
        self.router = ShardRouter(n_shards)
        self.obs = obs  # duck-typed observability plane, see module comment
        spec = _PipelineWorkerSpec(
            factory, watermark_factory, obs.worker if obs is not None else None
        )
        self.hosts = shard_hosts(spec, n_shards, worker_pool, request_timeout_s)
        self._accounts = [_ShardAccount() for _ in range(n_shards)]
        self._finished = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down cleanly (nothing to do inline). Idempotent."""
        self._closed = True
        for host in self.hosts:
            host.close()

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def restart_shard(self, shard: int) -> None:
        """Give one shard a fresh replica (after ``ShardWorkerDied``: in a
        fresh process).

        The replica's operator state is rebuilt from the factory, so the
        restarted shard starts a *new* stream — mid-stream restarts
        trade the determinism oracle for availability, which is why the
        restart is explicit, never automatic.
        """
        self.hosts[shard].restart()
        self._accounts[shard] = _ShardAccount()

    def reset(self) -> None:
        """Rebuild every replica in place and re-arm for a new stream —
        the amortization point of the pool: processes persist, only the
        (cheap) factory state is rebuilt."""
        for host in self.hosts:
            host.reset()
        self.router = ShardRouter(self.n_shards)
        self._accounts = [_ShardAccount() for _ in range(self.n_shards)]
        self._finished = False

    # -- execution ---------------------------------------------------------------

    def run(self, elements: Iterable[StreamElement], batch_size: int | None = None) -> list[Record]:
        """One incremental increment: route, run each shard ``flush=False``, merge."""
        self._ensure_serving()
        routed = self.router.route(elements)
        return self._dispatch([("run", shard_elements, batch_size) for shard_elements in routed])

    def finish(self) -> list[Record]:
        """Close every shard: final watermark, operator flush, merged tail.

        Single-use — :meth:`reset` re-arms for the next stream."""
        self._ensure_serving()
        self._finished = True
        return self._dispatch([("finish",)] * self.n_shards)

    def run_to_end(self, elements: Iterable[StreamElement], batch_size: int | None = None) -> list[Record]:
        """One-shot: route + run + finish, merged into one output stream."""
        body = self.run(elements, batch_size=batch_size)
        return merge_shard_outputs([body, self.finish()])

    def _dispatch(self, requests: list[Any]) -> list[Record]:
        replies = scatter_gather(self.hosts, requests)
        per_shard: list[list[Record]] = []
        for account, reply in zip(self._accounts, replies):
            per_shard.append(reply["records"])
            account.wall_s = reply["wall_s"]
            account.records = reply["records_processed"]
            account.watermark = reply["watermark"]
        if self.obs is not None:
            self.obs.fold([reply["harvest"] for reply in replies])
        return merge_shard_outputs(per_shard)

    def _ensure_serving(self) -> None:
        if self._closed:
            raise RuntimeError("sharded pipeline is closed")
        if self._finished:
            raise RuntimeError(
                "sharded pipeline already finished this stream; reset() to start a new one"
            )

    # -- accounting --------------------------------------------------------------

    def min_watermark(self) -> float:
        """The merged stream's event-time progress: min over shard watermarks.

        ``-inf`` without assigners or until every shard has seen a
        record — a straggling shard holds the merged watermark back,
        exactly like a lagging input channel in a multi-input operator.
        """
        return min(account.watermark for account in self._accounts)

    def wall_seconds(self) -> list[float]:
        """Per-shard wall seconds spent inside pipeline runs (setup excluded)."""
        return [account.wall_s for account in self._accounts]

    def setup_seconds(self) -> list[float]:
        """Per-shard replica build seconds (factory + instrumentation),
        accumulated across construction / reset / restart.

        Reported apart from :meth:`wall_seconds`, which is steady-state
        compute — startup is the one-off cost the worker pool amortizes
        away.
        """
        return [host.setup_s for host in self.hosts]

    def records_processed(self) -> list[int]:
        """Per-shard record counts (the routing balance)."""
        return [account.records for account in self._accounts]


def run_sharded(
    factory: PipelineFactory,
    elements: Iterable[StreamElement],
    n_shards: int,
    watermark_factory: AssignerFactory | None = None,
    batch_size: int | None = None,
    obs: Any = None,
) -> list[Record]:
    """One-shot in-process sharded execution of a bounded stream; returns
    the merged output.

    The convenience for ``ShardedPipeline(...).run_to_end(elements)``;
    with ``n_shards=1`` it reduces to the plain unsharded
    :meth:`Pipeline.run`. A warm worker pool is driven through the class
    itself (``worker_pool=True``, then :meth:`~ShardedPipeline.run_to_end`
    + :meth:`~ShardedPipeline.reset` per stream).

    ``obs`` takes a duck-typed observability plane (see module comment;
    concretely :class:`repro.obs.harvest.ShardedObsPlane`): each shard
    replica is instrumented, and its metrics/events/traces are folded
    into the plane's parent-side registry — including each shard's wall
    seconds as ``shard.<i>.wall_s``.
    """
    sharded = ShardedPipeline(factory, n_shards, watermark_factory=watermark_factory, obs=obs)
    return sharded.run_to_end(elements, batch_size=batch_size)
