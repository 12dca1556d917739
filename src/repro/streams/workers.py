"""Persistent shard worker pool: long-lived replicas, batched IPC.

``run_sharded(parallel=True)`` forks a fresh ``multiprocessing.Pool``
per call: every run re-pickles the factory and every worker rebuilds its
shard replica from scratch, so operator state, mask caches and warmed
buffers die between runs. That is the wrong shape for the realtime
serving pattern — many small incremental runs against replicas that
should stay hot. This module keeps one **long-lived process per shard**:
the replica pipeline is built once (inside the worker, nothing with
operator state ever crosses the process boundary), and each
:meth:`ShardWorkerPool.run` ships that poll's records as **one batched
pickled frame per shard** over a private duplex pipe, then gathers one
response frame per shard — merged output records, cumulative wall/record
accounting, the shard watermark, and a per-run delta
:class:`~repro.obs.harvest.ObsHarvest` the parent folds exactly as the
fork path folds its one-shot harvests.

Protocol (strict lockstep — at most one outstanding request per worker,
so the pipe can never deadlock; the parent scatters to all shards before
gathering, so shards compute concurrently):

==================  ==================================================
parent → worker     worker → parent
==================  ==================================================
(spawn)             ``("ready", setup_s)`` or ``("fatal", repr(exc))``
``("req", p)``      ``("ok", response)`` or ``("err", repr(exc))``
``("reset",)``      ``("ready", setup_s)`` or ``("err", repr(exc))``
``("close",)``      ``("closed",)``, then the process exits
==================  ==================================================

This table is cross-checked against ``tools/ipc_protocol.toml`` by the
``ipc-protocol`` checker: the spec is the machine-readable source of
truth, this table the human-readable one, and drift in either is a
lint error.

Payloads (``p`` / ``response``) are opaque to the protocol — a
:class:`WorkerSpec` owns their shape. The pipeline pool of this module
ships ``list[Record]`` by value (``Record`` and the domain values it
carries pickle positionally, not through the per-object ``fields()``
walk frozen+slots dataclasses default to); the pooled Figure-2 layer
ships pre-serialised ``bytes`` in both directions — columnar fix
batches out, reply-by-reference topics back (``repro.core.frames``).

Liveness: a dead worker is detected at the next interaction with it and
surfaced as :class:`ShardWorkerDied` carrying the shard id; a *hung*
worker (alive but not replying — ``Connection.recv`` only raises for
dead peers) is bounded by ``request_timeout_s``: every wait for a reply
polls a deadline, and on expiry the host kills the worker and raises
:class:`ShardWorkerDied` too. An exception *inside* the replica comes
back as :class:`ShardWorkerError` and leaves the process alive. :meth:`ShardWorkerPool.restart_shard` respawns one
worker with a fresh replica; :meth:`ShardWorkerPool.close` (or the
context manager) shuts everything down cleanly.

The sequential :class:`~repro.streams.sharding.ShardedPipeline` stays
the byte-identical determinism oracle: routing, ``flush=False``
increments, ``finish`` and the ``(t, key)`` merge are the same code, so
N pool runs produce the same topic streams — and the per-run delta
harvests fold to the same counters — as the in-process twin.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Protocol

from .pipeline import WatermarkAssigner
from .record import Record, StreamElement
from .sharding import (
    AssignerFactory,
    PipelineFactory,
    ShardRouter,
    critical_path_speedup,
    merge_shard_outputs,
)


#: Default reply deadline for :class:`ShardWorkerPool` — generous (a batched
#: frame plus a full replica rebuild fit comfortably) but finite, so a hung
#: worker surfaces as :class:`ShardWorkerDied` instead of wedging the parent.
DEFAULT_REQUEST_TIMEOUT_S = 300.0

#: Bounded wait for the ``("closed",)`` shutdown ack before reaping anyway.
_CLOSE_ACK_TIMEOUT_S = 5.0


class ShardWorkerDied(RuntimeError):
    """The shard's worker process is gone (crash, kill, closed pool).

    Raised at the next interaction with the dead worker — the pool does
    not monitor workers between requests. ``shard`` names the replica so
    callers can :meth:`ShardWorkerPool.restart_shard` it.
    """

    def __init__(self, shard: int, detail: str = ""):
        self.shard = shard
        suffix = f": {detail}" if detail else ""
        super().__init__(f"worker for shard {shard} died{suffix}")


class ShardWorkerError(RuntimeError):
    """The replica raised inside its worker; the process is still alive.

    The traceback text travels as ``detail`` — the exception object
    itself stays in the worker (it may hold unpicklable operator state).
    """

    def __init__(self, shard: int, detail: str):
        self.shard = shard
        super().__init__(f"shard {shard} worker request failed: {detail}")


class WorkerSpec(Protocol):
    """What a :class:`WorkerHost` hosts: a picklable replica recipe.

    ``setup`` builds the long-lived shard state once, inside the worker
    process; ``handle`` serves one request against it. The spec crosses
    the process boundary exactly once, at spawn — it must be picklable
    and hold no live state.
    """

    def setup(self, shard: int) -> Any: ...

    def handle(self, shard: int, state: Any, request: Any) -> Any: ...


def _worker_main(conn: multiprocessing.connection.Connection, spec: Any, shard: int) -> None:
    """Long-lived worker loop: build the replica once, serve lockstep requests."""
    try:
        t0 = perf_counter()
        state = spec.setup(shard)
        conn.send(("ready", perf_counter() - t0))
    # reprolint: disable=hygiene — IPC boundary: any setup failure must travel
    # to the parent as a ("fatal", repr) frame, never crash the worker silently.
    except Exception as exc:
        # Setup is fatal: report and exit, the parent raises ShardWorkerError.
        conn.send(("fatal", repr(exc)))
        conn.close()
        return
    while True:
        try:
            # reprolint: disable=resource-lifecycle — the worker idles here by
            # design between lockstep requests; liveness is owned by the parent
            # (its request deadline), and a dead parent surfaces as EOF below.
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; nothing left to serve
        kind = msg[0]
        if kind == "close":
            conn.send(("closed",))
            break
        if kind == "reset":
            try:
                t0 = perf_counter()
                state = spec.setup(shard)
                conn.send(("ready", perf_counter() - t0))
            # reprolint: disable=hygiene — IPC boundary: rebuild failures must
            # travel as ("err", repr) frames and leave the worker serving.
            except Exception as exc:
                conn.send(("err", repr(exc)))
            continue
        if kind == "req":
            try:
                conn.send(("ok", spec.handle(shard, state, msg[1])))
            # reprolint: disable=hygiene — IPC boundary: replica exceptions must
            # travel as ("err", repr) frames (the exception object itself may
            # hold unpicklable operator state) and leave the worker serving.
            except Exception as exc:
                conn.send(("err", repr(exc)))
            continue
        conn.send(("err", f"unknown message kind {kind!r}"))
    conn.close()


class WorkerHost:
    """One long-lived worker process plus the parent end of its pipe.

    Requests are strict lockstep (send one frame, receive one frame), so
    there is never more than one message in flight per worker and the
    duplex pipe cannot deadlock. Every interaction checks liveness
    first: a dead process surfaces as :class:`ShardWorkerDied` naming
    the shard.

    ``setup_s`` accumulates replica build seconds across the initial
    spawn and every :meth:`reset`/:meth:`restart` — reported apart from
    run walls so speedups compare steady state.

    ``request_timeout_s`` bounds every wait for a reply frame: a worker
    that is alive but hung (deadlocked replica, wedged syscall) would
    otherwise block the parent forever, because ``Connection.recv``
    only raises for *dead* peers. On deadline the host terminates the
    worker (the lockstep is desynchronised — a late reply could pair
    with the wrong request) and raises :class:`ShardWorkerDied` naming
    the shard, so callers can :meth:`restart`. ``None`` disables the
    deadline (the pre-timeout behavior).
    """

    def __init__(
        self,
        spec: Any,
        shard: int,
        context: Any = None,
        start: bool = True,
        request_timeout_s: float | None = None,
    ):
        self.spec = spec
        self.shard = shard
        self.request_timeout_s = request_timeout_s
        self._ctx = context if context is not None else multiprocessing.get_context()
        self._proc: Any = None
        self._conn: multiprocessing.connection.Connection | None = None
        self.setup_s = 0.0
        if start:
            self.start()

    def start(self) -> None:
        """Spawn the process and block until its replica is built."""
        if self.alive():
            raise RuntimeError(f"worker for shard {self.shard} is already running")
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.spec, self.shard),
            name=f"shard-worker-{self.shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn
        kind, payload = self._recv()
        if kind == "ready":
            self.setup_s += payload
        elif kind == "fatal":
            # The worker reported a setup failure and is exiting; reap it.
            self._terminate()
            raise ShardWorkerError(self.shard, str(payload))
        else:
            self._terminate()
            raise ShardWorkerDied(
                self.shard, f"protocol violation: unexpected spawn reply {kind!r}"
            )

    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self._proc is not None and self._proc.is_alive()

    def send(self, payload: Any) -> None:
        """Ship one request frame (batched records pickle as one message)."""
        self._ensure_alive()
        assert self._conn is not None
        try:
            self._conn.send(("req", payload))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerDied(self.shard, repr(exc)) from exc

    def receive(self) -> Any:
        """Block for the matching response frame of the last :meth:`send`."""
        kind, payload = self._recv()
        if kind == "ok":
            return payload
        if kind == "err":
            raise ShardWorkerError(self.shard, str(payload))
        self._terminate()
        raise ShardWorkerDied(
            self.shard, f"protocol violation: unexpected request reply {kind!r}"
        )

    def request(self, payload: Any) -> Any:
        """Lockstep convenience: :meth:`send` then :meth:`receive`."""
        self.send(payload)
        return self.receive()

    def reset(self) -> None:
        """Rebuild the replica in place (same process, fresh state)."""
        self._ensure_alive()
        assert self._conn is not None
        try:
            self._conn.send(("reset",))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerDied(self.shard, repr(exc)) from exc
        kind, payload = self._recv()
        if kind == "ready":
            self.setup_s += payload
        elif kind == "err":
            raise ShardWorkerError(self.shard, str(payload))
        else:
            self._terminate()
            raise ShardWorkerDied(
                self.shard, f"protocol violation: unexpected reset reply {kind!r}"
            )

    def restart(self) -> None:
        """Kill the process (alive or not) and spawn a fresh replica."""
        self._terminate()
        self.start()

    def close(self) -> None:
        """Clean shutdown: ask the worker to exit, then reap it. Idempotent."""
        if self._proc is None:
            return
        if self._proc.is_alive() and self._conn is not None:
            try:
                self._conn.send(("close",))
                # Bounded wait for the ("closed",) ack (or EOF if it raced
                # exit) — shutdown must not hang on a wedged worker; the
                # _terminate() below reaps it regardless of what arrived.
                if self._conn.poll(_CLOSE_ACK_TIMEOUT_S):
                    self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass  # reprolint: disable=hygiene — best-effort shutdown: the worker may already be gone
        self._terminate()

    def _terminate(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=5.0)
            self._proc = None

    def _ensure_alive(self) -> None:
        if not self.alive():
            raise ShardWorkerDied(self.shard)

    def _recv(self) -> tuple[str, Any]:
        assert self._conn is not None
        try:
            if self.request_timeout_s is not None and not self._conn.poll(
                self.request_timeout_s
            ):
                # The worker is alive but did not reply in time. The
                # lockstep is now desynchronised — a late reply could pair
                # with the wrong request — so the only safe recovery is to
                # kill the worker and report it dead.
                self._terminate()
                raise ShardWorkerDied(
                    self.shard,
                    f"no reply within {self.request_timeout_s}s (worker hung)",
                )
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerDied(self.shard, repr(exc)) from exc


@dataclass(slots=True)
class _PipelineReplica:
    """Worker-side state of one pipeline shard: built once, reused per run."""

    pipeline: Any
    assigner: WatermarkAssigner | None
    obs_state: Any
    setup_s: float
    prev_harvest: Any = None


@dataclass(frozen=True, slots=True)
class _PipelineWorkerSpec:
    """Picklable recipe for a pipeline shard replica (see :class:`WorkerSpec`).

    Holds only module-level factories and the obs plane's picklable
    ``worker`` recipe — the live pipeline, assigner and registries exist
    solely inside the worker process.
    """

    factory: PipelineFactory
    watermark_factory: AssignerFactory | None = None
    obs_worker: Any = None
    batch_size: int | None = None

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
                elements,
                watermarks=replica.assigner,
                flush=False,
                batch_size=batch_size if batch_size is not None else self.batch_size,
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
    """Parent-side view of one worker's cumulative accounting."""

    wall_s: float = 0.0
    records: int = 0
    watermark: float = field(default=-math.inf)


class ShardWorkerPool:
    """N long-lived worker processes, one pre-built pipeline replica each.

    The process-backed twin of :class:`~repro.streams.sharding.
    ShardedPipeline`, with the same facade — :meth:`run` increments,
    single-use :meth:`finish`, :meth:`run_to_end`, min-watermark merge,
    per-shard wall/records and :meth:`critical_path_speedup` — but the
    replicas persist across runs, so repeated small runs (the realtime
    serving pattern) pay IPC only, never fork or rebuild. The sequential
    ``ShardedPipeline`` is the byte-identical determinism oracle.

    ``obs`` takes the same duck-typed plane as the rest of the substrate
    (see the ``repro.streams.sharding`` module comment): each run folds
    the workers' per-run **delta** harvests, which accumulate to exactly
    the counters the oracle's one-shot fold reports.

    Use as a context manager (or call :meth:`close`) so worker processes
    never outlive the stream.

    ``request_timeout_s`` (default :data:`DEFAULT_REQUEST_TIMEOUT_S`)
    bounds every wait for a shard's reply: a hung-but-alive worker
    surfaces as :class:`ShardWorkerDied` instead of wedging the parent,
    and :meth:`restart_shard` recovers it. ``None`` restores the old
    unbounded behavior.
    """

    def __init__(
        self,
        factory: PipelineFactory,
        n_shards: int,
        watermark_factory: AssignerFactory | None = None,
        obs: Any = None,
        batch_size: int | None = None,
        context: Any = None,
        request_timeout_s: float | None = DEFAULT_REQUEST_TIMEOUT_S,
    ):
        if n_shards < 1:
            raise ValueError("a worker pool needs at least one shard")
        self.n_shards = n_shards
        self.router = ShardRouter(n_shards)
        self.obs = obs
        self._has_assigners = watermark_factory is not None
        spec = _PipelineWorkerSpec(
            factory=factory,
            watermark_factory=watermark_factory,
            obs_worker=obs.worker if obs is not None else None,
            batch_size=batch_size,
        )
        self.hosts = [
            WorkerHost(
                spec, shard, context=context, request_timeout_s=request_timeout_s
            )
            for shard in range(n_shards)
        ]
        self._accounts = [_ShardAccount() for _ in range(n_shards)]
        self._finished = False
        self._closed = False
        self.runs = 0

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down cleanly. Idempotent."""
        self._closed = True
        for host in self.hosts:
            host.close()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def restart_shard(self, shard: int) -> None:
        """Respawn one worker with a fresh replica (after ShardWorkerDied).

        The replica's operator state is rebuilt from the factory, so the
        restarted shard starts a *new* stream — mid-stream restarts
        trade the determinism oracle for availability, which is why the
        restart is explicit, never automatic.
        """
        self.hosts[shard].restart()
        self._accounts[shard] = _ShardAccount()

    def reset(self) -> None:
        """Rebuild every replica in place and re-arm the pool for a new
        stream — the amortization point: processes persist, only the
        (cheap) factory state is rebuilt."""
        for host in self.hosts:
            host.reset()
        self.router = ShardRouter(self.n_shards)
        self._accounts = [_ShardAccount() for _ in range(self.n_shards)]
        self._finished = False

    # -- execution ---------------------------------------------------------------

    def run(self, elements: Iterable[StreamElement], batch_size: int | None = None) -> list[Record]:
        """One incremental increment: route, scatter one frame per shard,
        gather, fold obs deltas, merge — same semantics as
        :meth:`ShardedPipeline.run`."""
        self._ensure_serving()
        routed = self.router.route(elements)
        return self._dispatch([("run", shard_elements, batch_size) for shard_elements in routed])

    def finish(self) -> list[Record]:
        """Close every shard: final watermark, operator flush, merged tail.

        Single-use like the oracle's — :meth:`reset` re-arms the pool
        for the next stream without respawning processes.
        """
        self._ensure_serving()
        self._finished = True
        return self._dispatch([("finish",)] * self.n_shards)

    def run_to_end(self, elements: Iterable[StreamElement], batch_size: int | None = None) -> list[Record]:
        """One-shot: run + finish, merged into one output stream."""
        body = self.run(elements, batch_size=batch_size)
        return merge_shard_outputs([body, self.finish()])

    def _dispatch(self, payloads: list[Any]) -> list[Record]:
        # Scatter everything before gathering anything: all shards
        # compute concurrently, the parent blocks on the slowest.
        for host, payload in zip(self.hosts, payloads):
            host.send(payload)
        responses = [host.receive() for host in self.hosts]
        harvests = []
        per_shard: list[list[Record]] = []
        for account, resp in zip(self._accounts, responses):
            per_shard.append(resp["records"])
            account.wall_s = resp["wall_s"]
            account.records = resp["records_processed"]
            account.watermark = resp["watermark"]
            if resp["harvest"] is not None:
                harvests.append(resp["harvest"])
        if self.obs is not None and harvests:
            self.obs.fold(harvests)
        self.runs += 1
        return merge_shard_outputs(per_shard)

    def _ensure_serving(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if self._finished:
            raise RuntimeError("worker pool already finished this stream; reset() to start a new one")

    # -- accounting --------------------------------------------------------------

    def min_watermark(self) -> float:
        """Merged event-time progress: min over shard watermarks (``-inf``
        without assigners or before every shard has seen a record)."""
        if not self._has_assigners:
            return -math.inf
        return min(account.watermark for account in self._accounts)

    def wall_seconds(self) -> list[float]:
        """Per-shard wall seconds spent inside pipeline runs (setup excluded)."""
        return [account.wall_s for account in self._accounts]

    def setup_seconds(self) -> list[float]:
        """Per-shard replica build seconds, accumulated across spawn /
        reset / restart — the cost the pool amortizes, reported apart
        from run walls."""
        return [host.setup_s for host in self.hosts]

    def records_processed(self) -> list[int]:
        """Per-shard record counts (the routing balance)."""
        return [account.records for account in self._accounts]

    def critical_path_speedup(self) -> float:
        """Aggregate shard compute over the slowest shard, from steady-state
        run walls only — replica/process startup is excluded by
        construction (see :meth:`setup_seconds`)."""
        return critical_path_speedup(self.wall_seconds())
