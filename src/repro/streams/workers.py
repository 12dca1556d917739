"""Shard hosts: where a replica lives, and the one scatter/gather over them.

A sharded stream is N replicas fed one request per poll each. *What* a
replica is belongs to a :class:`WorkerSpec` (``setup`` builds it once,
``handle`` serves one request); *where* it lives belongs to a host, and
there are exactly two, with one surface (``send`` / ``receive`` /
``restart`` / ``close`` / ``setup_s``):

* :class:`InlineHost` calls ``spec.setup`` / ``spec.handle`` directly in
  the parent process — the deterministic oracle, no serialisation;
* :class:`WorkerHost` keeps one **long-lived process per shard**: the
  replica is built once inside the worker (nothing with operator state
  ever crosses the process boundary) and every request is **one pickled
  frame per shard** over a private duplex pipe, so operator state, mask
  caches and warmed buffers stay hot across the many small incremental
  runs of the realtime serving pattern.

:func:`scatter_gather` is the only place that ships a request to every
shard and collects a reply from every shard; the one sharded executor,
the Figure-2 layer (``repro.core.sharded``), runs every poll through it
on either host, so the two transports execute the same code and differ
only in the host.

Protocol of the process host: strict lockstep — at most one outstanding
request per worker, so the pipe can never deadlock; the parent scatters
to all shards before gathering, so shards compute concurrently. The
protocol is declared once, as data both ends run on: :data:`PROTOCOL`
below maps each request tag to the reply tags that may answer it. The
parent writes frames only through :meth:`WorkerHost._send` and reads
them only through :meth:`WorkerHost._expect`, which refuses a reply
:data:`PROTOCOL` does not list for the request; the worker dispatches
through one handler table keyed by the same request tags.

Payloads (``p`` / ``response``) are opaque to the protocol — a
:class:`WorkerSpec` owns their shape. The pooled Figure-2 layer ships
pre-serialised ``bytes`` in both directions — columnar fix batches out,
the run's stamp, clean rows and derived topics back
(``repro.core.frames``); the derived
records that still travel by value inside a reply (``Record`` and the
domain values it carries) pickle positionally, about twice as fast as
the slots dataclass default (a per-object walk over the slots).

Liveness: a dead worker is detected at the next interaction with it and
surfaced as :class:`ShardWorkerDied` carrying the shard id; a *hung*
worker (alive but not replying — ``Connection.recv`` only raises for
dead peers) is bounded by ``request_timeout_s``: every wait for a reply
polls a deadline, and on expiry the host kills the worker and raises
:class:`ShardWorkerDied` too. An exception *inside* the replica comes
back as :class:`ShardWorkerError` — from either host — and leaves the
replica serving. :meth:`WorkerHost.restart` respawns one worker with a
fresh replica; ``close`` shuts it down cleanly.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from time import perf_counter
from typing import Any, Callable, Iterable, Protocol, Sequence


#: Default reply deadline of the process hosts — generous (a batched
#: frame plus a full replica rebuild fit comfortably) but finite, so a hung
#: worker surfaces as :class:`ShardWorkerDied` instead of wedging the parent.
DEFAULT_REQUEST_TIMEOUT_S = 300.0

#: Bounded wait for the ``("closed",)`` shutdown ack before reaping anyway.
_CLOSE_ACK_TIMEOUT_S = 5.0

# Frame tags. A frame is the tuple ``(tag, *payload)``.
REQ, CLOSE = "req", "close"  # parent → worker
READY, FATAL, OK, ERR, CLOSED = "ready", "fatal", "ok", "err", "closed"  # worker → parent

#: The whole protocol: request tag → the reply tags that may answer it.
#: ``None`` is the spawn itself — a new worker speaks first.
PROTOCOL: dict[str | None, tuple[str, ...]] = {
    None: (READY, FATAL),  # (spawn)    → ("ready", setup_s) | ("fatal", repr(exc)), then exits
    REQ: (OK, ERR),        # ("req", p) → ("ok", response)   | ("err", repr(exc))
    CLOSE: (CLOSED,),      # ("close",) → ("closed",), then exits
}

#: Replies that mean the request failed inside the replica: the parent
#: raises :class:`ShardWorkerError` with their payload.
_FAILED = (ERR, FATAL)
#: Replies after which the worker process exits.
_LAST_WORDS = (FATAL, CLOSED)


class ShardWorkerDied(RuntimeError):
    """The shard's worker process is gone (crash, kill, closed pool).

    Raised at the next interaction with the dead worker — the pool does
    not monitor workers between requests. ``shard`` names the replica so
    callers can restart it.
    """

    def __init__(self, shard: int, detail: str = ""):
        self.shard = shard
        suffix = f": {detail}" if detail else ""
        super().__init__(f"worker for shard {shard} died{suffix}")


class ShardWorkerError(RuntimeError):
    """The replica raised while serving a request; it is still alive.

    From a worker process the exception travels as its ``repr`` in
    ``detail`` — the object itself stays in the worker (it may hold
    unpicklable operator state); an inline host chains the original.
    """

    def __init__(self, shard: int, detail: str):
        self.shard = shard
        super().__init__(f"shard {shard} worker request failed: {detail}")


class WorkerSpec(Protocol):
    """What a host hosts: a picklable replica recipe.

    ``setup`` builds the long-lived shard state once, wherever the host
    puts it; ``handle`` serves one request against it. The spec crosses
    the process boundary exactly once, at spawn — it must be picklable
    and hold no live state.
    """

    def setup(self, shard: int) -> Any: ...

    def handle(self, shard: int, state: Any, request: Any) -> Any: ...


class _Replica:
    """Worker-side state, and the handler of each request tag."""

    def __init__(self, spec: WorkerSpec, shard: int):
        self.spec = spec
        self.shard = shard
        self.state: Any = None

    def build(self) -> tuple:
        t0 = perf_counter()
        self.state = self.spec.setup(self.shard)
        return READY, perf_counter() - t0

    def serve(self, payload: Any) -> tuple:
        return OK, self.spec.handle(self.shard, self.state, payload)


#: Worker-side dispatch, keyed by the request tags of :data:`PROTOCOL`.
_HANDLERS: dict[str | None, Callable[..., tuple]] = {
    None: _Replica.build,
    REQ: _Replica.serve,
    CLOSE: lambda replica: (CLOSED,),
}


def _worker_main(
    conn: multiprocessing.connection.Connection,
    parent_conn: multiprocessing.connection.Connection,
    spec: WorkerSpec,
    shard: int,
) -> None:
    """Long-lived worker loop: build the replica once, serve lockstep requests."""
    # Our copy of the parent's end of the pipe (inherited under fork, shipped
    # under spawn). While anyone holds that end open a dead parent never
    # reads as EOF below and this worker outlives it forever. (Workers forked
    # later inherit a copy too; theirs closes when they exit on their own EOF.)
    parent_conn.close()
    replica = _Replica(spec, shard)
    frame: tuple = (None,)  # the spawn is the first request
    while True:
        request, *payload = frame
        try:
            if request not in _HANDLERS:
                raise ValueError(f"unknown message kind {request!r}")
            reply = _HANDLERS[request](replica, *payload)
            conn.send(reply)
        # IPC boundary: whatever a handler raises (or a response that will
        # not pickle) must travel to the parent as an ("err", repr) frame and
        # leave the worker serving — ("fatal", repr) for the first build; the
        # exception object itself may hold unpicklable operator state, so
        # only its repr crosses.
        except Exception as exc:
            reply = (FATAL if request is None else ERR, repr(exc))
            conn.send(reply)
        if reply[0] in _LAST_WORDS:
            break
        try:
            # Unbounded on purpose: the worker idles here between lockstep
            # requests; the parent owns liveness (its request deadline), and
            # a dead parent reads as EOF.
            frame = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; nothing left to serve
    conn.close()


class WorkerHost:
    """One long-lived worker process plus the parent end of its pipe.

    Requests are strict lockstep (send one frame, receive one frame), so
    there is never more than one message in flight per worker and the
    duplex pipe cannot deadlock. Every interaction checks liveness
    first: a dead process surfaces as :class:`ShardWorkerDied` naming
    the shard.

    ``setup_s`` accumulates replica build seconds across the initial
    spawn and every :meth:`restart` — reported apart from run walls so
    speedups compare steady state.

    ``request_timeout_s`` bounds every wait for a reply frame: a worker
    that is alive but hung (deadlocked replica, wedged syscall) would
    otherwise block the parent forever, because ``Connection.recv``
    only raises for *dead* peers. On deadline the host terminates the
    worker (the lockstep is desynchronised — a late reply could pair
    with the wrong request) and raises :class:`ShardWorkerDied` naming
    the shard, so callers can :meth:`restart`.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        shard: int,
        context: Any = None,
        start: bool = True,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
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
            args=(child_conn, parent_conn, self.spec, self.shard),
            name=f"shard-worker-{self.shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn
        self.setup_s += self._expect(None)

    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self._proc is not None and self._proc.is_alive()

    def send(self, payload: Any) -> None:
        """Ship one request frame (batched records pickle as one message)."""
        self._send(REQ, payload)

    def receive(self) -> Any:
        """Block for the matching response frame of the last :meth:`send`."""
        return self._expect(REQ)

    def request(self, payload: Any) -> Any:
        """Lockstep convenience: :meth:`send` then :meth:`receive`."""
        self.send(payload)
        return self.receive()

    def restart(self) -> None:
        """Kill the process (alive or not) and spawn a fresh replica."""
        self._terminate()
        self.start()

    def close(self) -> None:
        """Clean shutdown: ask the worker to exit, then reap it. Idempotent."""
        if self.alive():
            try:
                self._send(CLOSE)
                self._expect(CLOSE)
            except ShardWorkerDied:
                pass  # best-effort shutdown: the worker may already be gone
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

    def _send(self, tag: str, *payload: Any) -> None:
        """Write the frame ``(tag, *payload)`` — the parent's only write."""
        if not self.alive():
            raise ShardWorkerDied(self.shard)
        assert self._conn is not None
        try:
            self._conn.send((tag, *payload))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerDied(self.shard, repr(exc)) from exc

    def _expect(self, request: str | None) -> Any:
        """Read the one reply to ``request`` — the parent's only read.

        Returns the reply's payload; a reply in :data:`_FAILED` raises
        :class:`ShardWorkerError` instead. No frame before the deadline,
        EOF, or a tag :data:`PROTOCOL` does not list for ``request`` all
        mean the lockstep is lost (a late or stray reply could pair with
        the wrong request), so the worker is killed and reported dead.
        """
        if self._conn is None:
            raise ShardWorkerDied(self.shard)
        # The shutdown ack has its own short bound: close() must not
        # wait out a request deadline on a wedged worker.
        timeout_s = _CLOSE_ACK_TIMEOUT_S if request == CLOSE else self.request_timeout_s
        detail: str | None = None
        cause: Exception | None = None
        try:
            if not self._conn.poll(timeout_s):
                detail = f"no reply within {timeout_s}s (worker hung)"
            else:
                tag, *payload = self._conn.recv()
                if tag not in PROTOCOL[request]:
                    detail = (
                        f"protocol violation: unexpected {request or 'spawn'} reply {tag!r}"
                    )
        except (EOFError, OSError) as exc:
            detail, cause = repr(exc), exc
        if detail is not None:
            self._terminate()
            raise ShardWorkerDied(self.shard, detail) from cause
        if tag in _LAST_WORDS:
            self._terminate()  # the worker is exiting by itself; reap it
        if tag in _FAILED:
            raise ShardWorkerError(self.shard, str(payload[0]))
        return payload[0] if payload else None


class InlineHost:
    """The in-process twin of :class:`WorkerHost`: same surface, no process.

    ``spec.setup`` / ``spec.handle`` run in the caller, on the objects
    the caller handed over — nothing is serialised, which is what makes
    the inline path the oracle for the frames of the process path.
    ``send`` only parks the request; ``receive`` serves it, so a failing
    shard cannot keep the shards after it from running (a worker process
    cannot either). ``state`` is the live replica ``setup`` returned.
    """

    def __init__(self, spec: WorkerSpec, shard: int):
        self.spec = spec
        self.shard = shard
        self.setup_s = 0.0
        self._request: Any = None
        self.restart()

    def send(self, payload: Any) -> None:
        self._request = payload

    def receive(self) -> Any:
        request, self._request = self._request, None
        try:
            return self.spec.handle(self.shard, self.state, request)
        # The host contract: whatever the replica raises surfaces as
        # ShardWorkerError naming the shard, as it does from a worker
        # process; the original stays chained.
        except Exception as exc:
            raise ShardWorkerError(self.shard, repr(exc)) from exc

    def restart(self) -> None:
        """Build the replica from the spec (fresh state)."""
        t0 = perf_counter()
        self.state = self.spec.setup(self.shard)
        self.setup_s += perf_counter() - t0

    def close(self) -> None:
        """Nothing to release in-process."""


def shard_hosts(
    spec: WorkerSpec,
    n_shards: int,
    worker_pool: bool,
    request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
) -> list[Any]:
    """One host per shard for ``spec``: worker processes with
    ``worker_pool``, inline otherwise. The caller owns them and must
    ``close`` each."""
    if not worker_pool:
        return [InlineHost(spec, shard) for shard in range(n_shards)]
    hosts: list[Any] = []
    try:
        for shard in range(n_shards):
            hosts.append(WorkerHost(spec, shard, request_timeout_s=request_timeout_s))
    # Not a handler: whatever stops a later shard from starting, the
    # workers already running are closed, then it re-raises.
    except BaseException:
        for host in hosts:
            host.close()
        raise
    return hosts


def scatter_gather(
    hosts: Sequence[Any],
    requests: Iterable[Any],
    decode: Callable[[int, Any], Any] | None = None,
) -> list[Any]:
    """Ship one request to every shard, then collect one reply from every shard.

    Everything is scattered before anything is gathered, so worker
    processes compute concurrently and the parent blocks on the slowest.
    Both ends overlap the parent's own work with the shards': ``requests``
    is consumed lazily, so shard *i*'s request is on the wire before
    shard *i+1*'s is built (encoded), and ``decode(shard, reply)``, when
    given, is applied to each reply as it is collected — while the later
    shards are still working — and its result returned in the reply's
    place.

    Every shard that was sent a request owes exactly one reply, and all
    of them are collected before the first error is raised: a reply left
    unread in a pipe would pair with the *next* request and put that
    shard one reply behind for good. So a :class:`ShardWorkerError`
    leaves every worker alive and in step; a :class:`ShardWorkerDied`
    still names its shard.
    """
    sent: list[Any] = []
    replies: list[Any] = []
    first_error: Exception | None = None
    try:
        for host, request in zip(hosts, requests):
            host.send(request)
            sent.append(host)
    finally:
        # Also when the scatter itself failed (a dead worker, a request
        # that could not be built): what is on the wire still comes back.
        for shard, host in enumerate(sent):
            try:
                reply = host.receive()
                replies.append(reply if decode is None else decode(shard, reply))
            # Whatever goes wrong with one shard's reply, the other shards'
            # must still be read.
            except Exception as exc:
                first_error = first_error or exc
    if first_error is not None:
        raise first_error
    return replies
