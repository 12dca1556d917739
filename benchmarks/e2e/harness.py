"""One repetition of a workload against the real public entry points.

The closed loop lives here: one client, no threads, each ``run()`` /
ingest / query is handed over when the previous call returned. The only
other processes are the two shard workers ``ais_pool`` asks the program
for.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import checks
from estimator import Unit
from repro.core import BatchLayer, DatacronSystem, SystemConfig
from repro.core.sharded import ShardedRealtimeLayer
from workloads import QUERY_PASSES, Inputs, Workload

#: Time extent the batch layer's store is built for (DatacronSystem's default).
T_EXTENT_S = 24 * 3600.0


class Spans:
    """In-memory span log of the benchmark's own calls, written out at exit.

    A span is ``name, start, end, parent`` plus the ``rep`` / ``poll`` (or
    ``ingest`` / ``query``) ids its siblings share.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float | None, parent: int | None, **ids) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start, "end": end, "parent": parent, **ids})
        return len(self.spans) - 1

    def open(self, name: str, parent: int | None, **ids) -> int:
        return self.add(name, perf_counter(), None, parent, **ids)

    def close(self, span: int) -> None:
        self.spans[span]["end"] = perf_counter()


@dataclass
class Rep:
    """What one repetition measured and produced."""

    units: dict[Unit, float]
    signature: dict
    worker_rss_mb: float
    spin_s: float
    cpu_s: float = 0.0
    shard_busy_s: float = 0.0
    shard_balance: float = 0.0
    #: topic -> per-poll record lists (traced repetitions only)
    capture: dict[str, list[list]] = field(default_factory=dict)


def build_system(workload: Workload, cep_symbols, in_process: bool = False):
    """The system under test: (real-time layer, batch layer on its broker)."""
    config = SystemConfig(**workload.config)
    if not workload.pooled:
        system = DatacronSystem(config, t_extent_s=T_EXTENT_S, cep_training_symbols=cep_symbols)
        return system.realtime, system.batch
    if in_process:
        config = replace(config, worker_pool=False)
    # DatacronSystem never builds the sharded layer; wire the batch layer
    # onto the merged broker exactly as it would.
    realtime = ShardedRealtimeLayer(config, cep_training_symbols=cep_symbols)
    batch = BatchLayer(config, realtime.broker, 0.0, T_EXTENT_S, registry=realtime.metrics)
    return realtime, batch


def close_system(realtime) -> None:
    close = getattr(realtime, "close", None)
    if close is not None:
        close()


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _spin() -> float:
    """A fixed pure-Python kernel: how fast the host is right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return perf_counter() - t0


def _workers_rss_mb() -> float:
    """Σ VmHWM of the live child processes (the shard workers), in MB."""
    total_kb = 0
    for proc in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{proc.pid}/status").read_text()
        except OSError:
            continue   # the worker exited between the listing and the read
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def run_repetition(
    workload: Workload,
    inputs: Inputs,
    tally: checks.Tally,
    rep: int,
    spans: Spans | None = None,
    capture: bool = False,
) -> Rep:
    """One repetition: setup, replay in polls, ingests, queries, checks, close.

    Timestamps are taken identically with tracing on or off; a span is a
    record of the same two clock reads, appended after the call returned.
    With ``capture`` the five topics are drained after every poll, so the
    stage replay gets each layer's materialised input at the same poll
    boundaries.
    """
    gc.collect()
    cpu0 = _cpu_seconds()
    spin_s = _spin()
    units: dict[Unit, float] = {}
    root = spans.open("e2e.rep", None, rep=rep) if spans else None

    def timed(kind: str, index: int, fn, *args):
        with tally.op(kind):
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
        # A unit timed more than once in a repetition (query passes) keeps its floor.
        units[(kind, index)] = min(t1 - t0, units.get((kind, index), t1 - t0))
        if spans:
            spans.add(f"e2e.{kind}", t0, t1, root, rep=rep, **{kind: index})
        return result

    realtime, batch = timed("setup", 0, build_system, workload, inputs.cep_symbols)
    try:
        consumers = {t: realtime.broker.consumer(t, "bench-stage") for t in checks.TOPICS} if capture else {}
        captured: dict[str, list[list]] = {t: [] for t in consumers}
        n_ingests = n_queries = 0
        query_rows: list[int] = []
        walls_before = realtime.shard_walls() if workload.pooled else []
        last = len(inputs.polls) - 1
        for j, poll in enumerate(inputs.polls):
            timed("poll", j, realtime.run, poll)
            if workload.pooled:
                # What the parent adds on top of the slower worker this poll.
                walls = realtime.shard_walls()
                busiest = max(b - a for a, b in zip(walls_before, walls))
                units[("parent_wait", j)] = units[("poll", j)] - busiest
                walls_before = walls
            for topic, consumer in consumers.items():
                captured[topic].append(checks.drain(consumer))
            if workload.ingests_after(j, last):
                timed("ingest", n_ingests, batch.ingest_from_broker)
                n_ingests += 1
                boxes = inputs.queries[: workload.queries_at_end if j == last else workload.queries_per_ingest]
                passes = [
                    [len(timed("query", n_queries + i, batch.nodes_in_range, *box)) for i, box in enumerate(boxes)]
                    for _ in range(QUERY_PASSES)
                ]
                for rows in passes[1:]:
                    checks.check_same(tally, "query pass = first pass", rows, passes[0])
                query_rows.extend(passes[0])
                n_queries += len(boxes)
        if capture:
            timed("snapshot", 0, realtime.metrics.snapshot)
        sig = checks.signature(realtime, batch, query_rows)
        checks.check_conservation(tally, sig)
        out = Rep(units, sig, _workers_rss_mb(), spin_s, capture=captured)
        if workload.pooled:
            out.shard_busy_s = sum(realtime.shard_walls())
            out.shard_balance = realtime.balance()
    finally:
        close_system(realtime)
    out.cpu_s = _cpu_seconds() - cpu0
    if spans:
        spans.close(root)
    return out


def measure_setup(workload: Workload, inputs: Inputs, n: int) -> list[float]:
    """Construct-and-close extras: setup is a 60-200 ms unit and needs the samples."""
    samples = []
    for _ in range(n):
        gc.collect()
        t0 = perf_counter()
        realtime, _ = build_system(workload, inputs.cep_symbols)
        samples.append(perf_counter() - t0)
        close_system(realtime)
    return samples
