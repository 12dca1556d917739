"""Tests for the shard hosts and the one scatter/gather (repro.streams.workers).

The correctness story is the twin discipline: the in-process host
(``worker_pool=False``) is the byte-identical determinism oracle — what
a spec serves from long-lived worker processes (``worker_pool=True``)
must equal what it serves inline, request for request. Here are the
equivalence of the two hosts, the worker protocol against real
processes, everything only a process can do (die, hang, restart, be
closed) and the pickle round trips of what crosses the pipe. The
executor that runs on the hosts, the sharded Figure-2 layer, is held to
the per-fix oracle and to its in-process twin by the equivalence matrix
(``test_core_per_fix_oracle.py``); what only it has, failures and
restarts included, is tested in ``test_core_sharded.py``.
"""

import math
import multiprocessing
import os
import pickle
import signal
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DatacronSystem, ShardedRealtimeLayer, SystemConfig
from repro.core.config import TOPIC_CLEAN, TOPIC_LINKS, TOPIC_RAW, TOPIC_SYNOPSES
from repro.core.frames import decode_reply, decode_request, encode_reply, encode_request
from repro.core.sharded import _RealtimeShardSpec
from repro.datasources import AISSimulator
from repro.geo import FixColumns, PositionFix
from repro.linkdiscovery import Link
from repro.obs import MetricsRegistry, fold_harvests, harvest_obs
from repro.obs.harvest import HistogramSnapshot, MetricsSnapshot, ObsHarvest
from repro.streams import workers
from repro.streams.workers import CLOSE, DEFAULT_REQUEST_TIMEOUT_S, PROTOCOL, REQ
from repro.synopses import CriticalPoint
from repro.streams import (
    Record,
    ShardWorkerDied,
    ShardWorkerError,
    WorkerHost,
    scatter_gather,
    shard_hosts,
)


@dataclass(frozen=True)
class EchoSpec:
    """Minimal WorkerSpec for exercising the host protocol directly."""

    def setup(self, shard):
        return {"shard": shard}

    def handle(self, shard, state, request):
        if request == "boom":
            raise ValueError("requested failure")
        return (shard, request)


@dataclass(frozen=True)
class SleeperSpec:
    """WorkerSpec whose handle can be told to hang (hung-worker injection)."""

    def setup(self, shard):
        return None

    def handle(self, shard, state, request):
        if request == "hang":
            time.sleep(30.0)
        return request


class TestWorkerHost:
    def test_lockstep_request_response(self):
        host = WorkerHost(EchoSpec(), shard=2)
        try:
            assert host.request("hello") == (2, "hello")
            assert host.request([1, 2, 3]) == (2, [1, 2, 3])
        finally:
            host.close()

    def test_replica_error_keeps_worker_alive(self):
        host = WorkerHost(EchoSpec(), shard=1)
        try:
            with pytest.raises(ShardWorkerError) as err:
                host.request("boom")
            assert err.value.shard == 1
            assert "requested failure" in str(err.value)
            # The process survived the in-replica exception.
            assert host.alive()
            assert host.request("after") == (1, "after")
        finally:
            host.close()

    def test_dead_worker_raises_typed_error_with_shard(self):
        host = WorkerHost(EchoSpec(), shard=4)
        host._proc.terminate()
        host._proc.join(timeout=5.0)
        with pytest.raises(ShardWorkerDied) as err:
            host.request("anything")
        assert err.value.shard == 4
        host.close()

    def test_restart_gives_fresh_replica(self):
        host = WorkerHost(EchoSpec(), shard=0)
        try:
            host._proc.terminate()
            host._proc.join(timeout=5.0)
            host.restart()
            assert host.alive()
            assert host.request("again") == (0, "again")
        finally:
            host.close()

    def test_close_is_idempotent(self):
        host = WorkerHost(EchoSpec(), shard=0)
        host.close()
        host.close()
        assert not host.alive()

    def test_closed_host_refuses_requests(self):
        host = WorkerHost(EchoSpec(), shard=5)
        host.close()
        with pytest.raises(ShardWorkerDied) as err:
            host.request("anything")
        assert err.value.shard == 5


class TestScatterGather:
    """The one send-to-all / receive-from-all step, on both hosts."""

    @pytest.fixture(params=[False, True], ids=["inline", "workers"])
    def hosts(self, request):
        hosts = shard_hosts(EchoSpec(), 3, worker_pool=request.param)
        yield hosts
        for host in hosts:
            host.close()

    def test_hosts_serve_the_same_spec_the_same(self, hosts):
        assert scatter_gather(hosts, ["a", "b", "c"]) == [(0, "a"), (1, "b"), (2, "c")]
        assert all(host.setup_s > 0.0 for host in hosts)

    def test_requests_are_built_as_each_shard_is_reached(self, hosts):
        """Shard i's request is sent before shard i+1's is built, and no
        request is built for a shard that does not exist."""
        built = []

        def requests():
            for i in range(10):
                built.append(i)
                yield i

        assert scatter_gather(hosts, requests()) == [(0, 0), (1, 1), (2, 2)]
        assert built == [0, 1, 2]

    def test_every_reply_is_collected_before_the_first_error_is_raised(self, hosts):
        for _ in range(2):  # in step after one error, and after the next
            with pytest.raises(ShardWorkerError, match="requested failure") as err:
                scatter_gather(hosts, ["boom", "x", "boom"])
            assert err.value.shard == 0
            assert scatter_gather(hosts, [1, 2, 3]) == [(0, 1), (1, 2), (2, 3)]

    def test_a_request_that_cannot_be_built_strands_no_reply(self, hosts):
        def requests():
            yield "first"
            raise KeyError("no request for shard 1")

        with pytest.raises(KeyError):
            scatter_gather(hosts, requests())
        assert scatter_gather(hosts, [1, 2, 3]) == [(0, 1), (1, 2), (2, 3)]

    def test_decode_sees_each_reply_and_its_failure_strands_none(self, hosts):
        shout = scatter_gather(hosts, "abc", decode=lambda shard, reply: (shard, reply[1].upper()))
        assert shout == [(0, "A"), (1, "B"), (2, "C")]

        def refuse_first(shard, reply):
            if shard == 0:
                raise ValueError("bad frame")
            return reply

        with pytest.raises(ValueError, match="bad frame"):
            scatter_gather(hosts, "abc", decode=refuse_first)
        assert scatter_gather(hosts, [1, 2, 3]) == [(0, 1), (1, 2), (2, 3)]

    def test_dead_worker_names_its_shard_and_the_rest_stay_in_step(self):
        hosts = shard_hosts(EchoSpec(), 3, worker_pool=True)
        try:
            hosts[1]._proc.terminate()
            hosts[1]._proc.join(timeout=5.0)
            with pytest.raises(ShardWorkerDied) as err:
                scatter_gather(hosts, ["a", "b", "c"])
            assert err.value.shard == 1
            hosts[1].restart()
            assert scatter_gather(hosts, [1, 2, 3]) == [(0, 1), (1, 2), (2, 3)]
        finally:
            for host in hosts:
                host.close()


@pytest.mark.parametrize("worker_pool", [False, True])
def test_per_run_delta_folds_equal_the_one_shot_harvest(worker_pool):
    """A replica replies with one delta harvest per run, whichever host
    serves it; over >= 3 runs, what the layer folds under ``shard.<i>.*``
    must be exactly what one harvest of the finished replicas reports.
    In-process the folded histograms are compared with one harvest of the
    *same* replicas, in full: buckets, count, min/max and quantiles
    exactly, the float sum to rounding. Worker replicas are not reachable
    from the parent, so pooled folds are compared with a second,
    in-process execution, whose wall timings differ: counts only."""
    fixes = list(AISSimulator(n_vessels=6, seed=5).fixes(600.0))
    size = (len(fixes) + 3) // 4

    def run_chunked(worker_pool):
        cfg = SystemConfig(n_shards=2, worker_pool=worker_pool, n_regions=20, n_ports=8)
        with ShardedRealtimeLayer(cfg) as layer:
            for start in range(0, len(fixes), size):
                layer.run(fixes[start: start + size])
        return layer

    layer = run_chunked(worker_pool)
    folded = layer.metrics
    finished = run_chunked(worker_pool=False) if worker_pool else layer
    one_shot = MetricsRegistry()
    fold_harvests(one_shot, [
        harvest_obs(shard, stages.metrics) for shard, stages in enumerate(finished.shards)
    ])
    sharded = one_shot.counters("shard.")
    assert sharded["shard.0.stage.raw.records"] + sharded["shard.1.stage.raw.records"] == len(fixes)
    assert folded.counters("shard.") == sharded
    for name, expected in one_shot._histograms.items():
        if not name.startswith("shard."):
            continue
        got = folded._histograms[name]
        assert got.count == expected.count, name
        if not worker_pool:
            assert got.buckets == expected.buckets, name
            assert (got.min, got.max) == (expected.min, expected.max), name
            assert got.quantiles() == expected.quantiles(), name
            assert got.sum == pytest.approx(expected.sum, rel=1e-12), name


class TestRequestTimeout:
    """Every wait for a reply polls a deadline; there is no unbounded wait.

    `Connection.recv` only raises for *dead* peers, so a reply read
    without its `poll(timeout)` guard lets a hung-but-alive worker wedge
    the parent: the first test would then block for the sleeper's 30 s
    and get a reply instead of `ShardWorkerDied`.
    """

    def test_hung_worker_surfaces_as_shard_worker_died(self):
        host = WorkerHost(SleeperSpec(), shard=3, request_timeout_s=0.3)
        try:
            assert host.request("ping") == "ping"
            host.send("hang")
            with pytest.raises(ShardWorkerDied) as err:
                host.receive()
            assert err.value.shard == 3
            assert "hung" in str(err.value)
            # The lockstep is desynchronised after a timeout (a late reply
            # could pair with the wrong request), so the host reaps the
            # worker rather than leaving it half-alive.
            assert not host.alive()
        finally:
            host.close()

    def test_slow_but_live_worker_is_not_killed(self):
        host = WorkerHost(EchoSpec(), shard=0, request_timeout_s=30.0)
        try:
            assert host.request("fine") == (0, "fine")
            assert host.alive()
        finally:
            host.close()

    def test_pool_default_is_generous_but_finite(self):
        hosts = [*shard_hosts(EchoSpec(), 2, worker_pool=True), WorkerHost(EchoSpec(), 2)]
        try:
            assert all(host.request_timeout_s == DEFAULT_REQUEST_TIMEOUT_S for host in hosts)
        finally:
            for host in hosts:
                host.close()

    def test_pool_recovers_from_hung_worker_via_restart(self):
        hosts = shard_hosts(SleeperSpec(), 2, worker_pool=True, request_timeout_s=0.4)
        try:
            with pytest.raises(ShardWorkerDied) as err:
                scatter_gather(hosts, ["hang", "ping"])
            assert err.value.shard == 0
            assert not hosts[0].alive()
            hosts[0].restart()
            assert scatter_gather(hosts, ["ping", "pong"]) == ["ping", "pong"]
        finally:
            for host in hosts:
                host.close()


@dataclass(frozen=True)
class FragileSpec:
    """WorkerSpec whose every failure can be provoked: a replica that
    cannot be built at spawn (``unbuildable`` for all shards, ``bad_shard``
    for one) and a request that raises."""

    unbuildable: bool = False
    bad_shard: int = -1

    def setup(self, shard):
        if self.unbuildable or shard == self.bad_shard:
            raise RuntimeError("no replica")
        return None

    def handle(self, shard, state, request):
        if request == "boom":
            raise ValueError("requested failure")
        return request


def _drive_close(host, fail):
    host._send(CLOSE)  # close() itself swallows what _expect raises
    host._expect(CLOSE)


#: How the parent issues each request of the protocol — keyed like
#: ``PROTOCOL``, so a request added there without a way to drive it here
#: fails the conformance tests with a ``KeyError``.
DRIVE = {
    None: lambda host, fail: host.start(),
    REQ: lambda host, fail: host.request("boom" if fail else "fine"),
    CLOSE: _drive_close,
}

ALL_REPLIES = sorted({reply for replies in PROTOCOL.values() for reply in replies})


def _scripted_peer(conn, parent_conn, script, shard):
    """Stands in for ``_worker_main``: answers the spawn and then each
    request with the next scripted frame, whatever was asked."""
    parent_conn.close()
    try:
        for frame in script:
            conn.send(frame)
            conn.recv()
    except EOFError:
        pass


def _shard_workers():
    return [p for p in multiprocessing.active_children() if p.name.startswith("shard-worker-")]


class TestProtocolConformance:
    """``workers.PROTOCOL`` is the spec; these run it against both ends."""

    def test_worker_handles_exactly_the_declared_requests(self):
        assert set(workers._HANDLERS) == set(PROTOCOL)

    @pytest.mark.parametrize(
        "request_tag, reply",
        [(request, reply) for request, replies in PROTOCOL.items() for reply in replies],
    )
    def test_a_real_worker_reaches_every_declared_reply(self, request_tag, reply):
        """``_expect`` returns only for a declared success reply and raises
        ``ShardWorkerError`` only for a declared failure reply, and no row
        declares two of either — so the outcome names the tag that came."""
        fail = reply in workers._FAILED
        spec = FragileSpec(unbuildable=fail and request_tag is None)
        host = WorkerHost(spec, 6, start=request_tag is not None)
        try:
            if fail:
                with pytest.raises(ShardWorkerError) as err:
                    DRIVE[request_tag](host, fail)
                assert err.value.shard == 6
            else:
                DRIVE[request_tag](host, fail)
            assert host.alive() == (reply not in workers._LAST_WORDS)
        finally:
            host.close()

    @pytest.mark.parametrize(
        "request_tag, stray",
        [
            (request, stray)
            for request, replies in PROTOCOL.items()
            for stray in ("bogus", *ALL_REPLIES)
            if stray not in replies
        ],
    )
    def test_undeclared_reply_kills_the_worker_and_names_the_shard(
        self, monkeypatch, request_tag, stray
    ):
        monkeypatch.setattr(workers, "_worker_main", _scripted_peer)
        script = [(stray, "x")] if request_tag is None else [("ready", 0.0), (stray, "x")]
        host = WorkerHost(script, 7, start=False, request_timeout_s=10.0)
        try:
            if request_tag is not None:
                host.start()
            with pytest.raises(ShardWorkerDied, match="protocol violation") as err:
                DRIVE[request_tag](host, False)
            assert err.value.shard == 7 and repr(stray) in str(err.value)
            assert not host.alive() and not _shard_workers()
        finally:
            host.close()

    def test_unknown_request_is_answered_err_and_the_worker_keeps_serving(self):
        host = WorkerHost(EchoSpec(), 2)
        try:
            host._send("bogus", 1)
            with pytest.raises(ShardWorkerError, match="unknown message kind 'bogus'"):
                host.receive()
            assert host.request("after") == (2, "after")
        finally:
            host.close()


class TestNoStrandedWorkers:
    """A worker must not outlive what owns it."""

    def test_failed_start_of_a_later_shard_closes_the_earlier_ones(self):
        with pytest.raises(ShardWorkerError) as err:
            shard_hosts(FragileSpec(bad_shard=1), 3, True)
        assert err.value.shard == 1
        assert not _shard_workers()

    def test_spawn_that_ends_in_eof_leaves_nothing_behind(self, monkeypatch):
        monkeypatch.setattr(workers, "_worker_main", _scripted_peer)
        host = WorkerHost([], 0, start=False)  # the peer exits without a word
        with pytest.raises(ShardWorkerDied):
            host.start()
        assert host._proc is None and host._conn is None

    def test_workers_exit_when_the_parent_is_killed(self):
        """SIGKILL runs no cleanup in the parent: the workers must notice
        by themselves, as EOF on their pipe."""
        script = (
            "import time\n"
            "from repro.core import SystemConfig\n"
            "from repro.core.sharded import _RealtimeShardSpec\n"
            "from repro.streams import shard_hosts\n"
            "cfg = SystemConfig(n_regions=10, n_ports=4)\n"
            "hosts = shard_hosts(_RealtimeShardSpec(cfg), 2, True)\n"
            "print(*(host._proc.pid for host in hosts), flush=True)\n"
            "time.sleep(60)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
        )
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        try:
            assert len(pids) == 2
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 5.0
            while not all(map(_exited, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if not _exited(pid)] == []
        finally:
            parent.kill()
            parent.stdout.close()
            for pid in pids:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_closing_a_worker_hung_mid_request_waits_only_for_the_ack(self, monkeypatch):
        """The shutdown ack has its own bound: ``close`` waits neither for
        the hung request (the sleeper's 30 s) nor for its deadline."""
        monkeypatch.setattr(workers, "_CLOSE_ACK_TIMEOUT_S", 0.3)
        host = WorkerHost(SleeperSpec(), 2)
        pid = host._proc.pid
        host.send("hang")
        started = time.monotonic()
        host.close()
        assert time.monotonic() - started < 3.0
        assert not host.alive() and _reaped(pid)

    def test_a_layer_whose_global_stages_fail_starts_no_worker(self):
        with pytest.raises(ValueError):
            ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=True, proximity_time_s=0.0))
        assert not _shard_workers()

    def test_a_system_whose_batch_layer_fails_closes_its_workers(self):
        with pytest.raises(ValueError):
            DatacronSystem(SystemConfig(n_shards=2, worker_pool=True), t_extent_s=0.0)
        assert not _shard_workers()

    @pytest.mark.parametrize("end", ["close", "hung", "killed"])
    def test_an_ended_worker_leaves_no_open_pipe_and_no_zombie(self, end):
        host = WorkerHost(SleeperSpec(), 4, request_timeout_s=0.3)
        conn, pid = host._conn, host._proc.pid
        try:
            if end == "close":
                host.close()
            else:
                host.send("hang")
                if end == "killed":
                    os.kill(pid, signal.SIGKILL)
                with pytest.raises(ShardWorkerDied):
                    host.receive()
            assert conn.closed and _reaped(pid)
        finally:
            host.close()


def _exited(pid) -> bool:
    """Gone, or a zombie nobody has reaped yet (its parent was killed)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _reaped(pid) -> bool:
    """Gone from the process table: exited *and* waited for by its parent."""
    return not os.path.exists(f"/proc/{pid}")


def _bit_equal_roundtrip(obj) -> bool:
    """Pickle round-trip that must reproduce both the object and its bytes."""
    blob = pickle.dumps(obj)
    clone = pickle.loads(blob)
    return clone == obj and pickle.dumps(clone) == blob


_metric_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz._", min_size=1, max_size=24
)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def _histogram_snapshots(draw):
    return HistogramSnapshot(
        count=draw(st.integers(min_value=0, max_value=10**6)),
        sum=draw(_finite),
        min=draw(_finite),
        max=draw(_finite),
        buckets=draw(st.dictionaries(st.integers(-3_000, 3_000), st.integers(1, 10**6), max_size=8)),
    )


@st.composite
def _harvests(draw, shard=0):
    metrics = MetricsSnapshot(
        counters=draw(
            st.dictionaries(_metric_names, st.integers(0, 10**9), max_size=6)
        ),
        gauges=draw(st.dictionaries(_metric_names, _finite, max_size=6)),
        histograms=draw(
            st.dictionaries(_metric_names, _histogram_snapshots(), max_size=4)
        ),
    )
    events = tuple(
        {"seq": i, "wall_s": float(i)}
        for i in range(draw(st.integers(0, 4)))
    )
    return ObsHarvest(
        shard=shard,
        metrics=metrics,
        events=events,
        wall_seconds=draw(st.floats(0.0, 1e6, allow_nan=False)),
        setup_seconds=draw(st.floats(0.0, 1e3, allow_nan=False)),
    )


class TestPickleBoundaryRoundTrip:
    """Everything that crosses the worker IPC boundary — the spec pickled
    at spawn, every frame shape of `PROTOCOL`, the obs harvests — must
    survive `pickle.dumps`/`loads` round-trips bit-equal. With the
    spawn-context worker in `test_core_sharded.py`, this is where a lock,
    a lambda or an open handle on a boundary type fails."""

    @given(seed=st.integers(0, 2**31), n_shards=st.integers(1, 8), worker_pool=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_shard_spec_round_trips(self, seed, n_shards, worker_pool):
        spec = _RealtimeShardSpec(
            SystemConfig(seed=seed, n_shards=n_shards, worker_pool=worker_pool)
        )
        assert _bit_equal_roundtrip(spec)

    @given(ts=st.lists(st.floats(0.0, 1e9, allow_nan=False), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_request_and_reply_frames_round_trip(self, ts):
        """Every frame shape of ``PROTOCOL``, around an opaque payload."""
        records = [
            Record(t, float(i), key=f"vessel-{i % 3}") for i, t in enumerate(ts)
        ]
        frames = [
            ("req", records),
            ("close",),
            ("ready", 0.015),
            ("ok", records),
            ("err", "ValueError('requested failure')"),
            ("fatal", "RuntimeError('setup exploded')"),
            ("closed",),
        ]
        for frame in frames:
            assert _bit_equal_roundtrip(frame), frame[0]

    @given(cur=_harvests(), prev=_harvests())
    @settings(max_examples=50, deadline=None)
    def test_obs_harvest_and_delta_round_trip(self, cur, prev):
        assert _bit_equal_roundtrip(cur)
        delta = cur.delta(prev)
        assert _bit_equal_roundtrip(delta)


def _exact(value):
    """A value that compares equal only bit for bit: floats by their
    IEEE-754 bytes (NaN payloads, signed zeros), containers item by item
    in order, everything else with its type (``1``, ``True`` and ``1.0``
    differ)."""
    if isinstance(value, float):
        return (type(value), struct.pack(">d", value))
    if isinstance(value, dict):
        return (type(value), [(_exact(k), _exact(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [_exact(v) for v in value])
    return (type(value), value)


def _exact_fix(fix):
    return tuple(
        _exact(getattr(fix, name)) for name in PositionFix.__dataclass_fields__
    )


def _exact_columns(columns):
    return (
        columns.entity_ids,
        columns.entity_codes.dtype,
        columns.entity_codes.tolist(),
        columns.columns.shape,
        columns.columns.tobytes(),
        columns.valid.tobytes(),
        [(j, i, _exact(value)) for j, i, value in columns.odd],
    )


_any_float = st.floats(allow_nan=True, allow_infinity=True)
_kinematic = st.one_of(st.none(), _any_float, st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
# Values that compare equal but pickle differently (0, False, 0.0, -0.0),
# unhashable ones and nested ones: the frame must keep every one apart.
_annotation_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(0, 9), st.sampled_from([0.0, -0.0, 1.0, math.nan]),
        st.sampled_from(["transit", "port"]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["k", "v"]), inner)),
    max_leaves=4,
)
_annotations = st.one_of(
    st.just({}),
    st.dictionaries(st.sampled_from(["regime", "gap_s", "path"]), _annotation_values, min_size=1),
)
_position_fixes = st.builds(
    PositionFix,
    entity_id=st.sampled_from(["vessel-a", "vessel-b", "vessel-\u00e7"]),
    # Declared float, but nothing stops a feed handing over an int epoch.
    t=st.one_of(_any_float, st.integers(0, 10**9)),
    lon=_any_float,
    lat=_any_float,
    alt=_any_float,
    speed=_kinematic,
    heading=_kinematic,
    vrate=_kinematic,
    source=st.sampled_from(["", "ais", "adsb"]),
    annotations=_annotations,
)
_stamps = st.floats(1.0e9, 2.0e9, allow_nan=False)


def _annotated(values):
    """Fixes of two entities, one ``{"regime": value}`` dict each."""
    return [
        PositionFix(f"vessel-{i % 2}", float(i), 1.0, 2.0, annotations={"regime": value})
        for i, value in enumerate(values)
    ]


class TestShardFrameRoundTrip:
    """The compact frames of the pooled Figure-2 layer (repro.core.frames)
    and the positional pickles of the records that still travel by value."""

    @given(fixes=st.lists(_position_fixes, max_size=12), share=st.booleans())
    @example(fixes=[], share=False)
    @example(fixes=[PositionFix("solo", 0.0, -0.0, math.nan, math.inf, None, -0.0, None)], share=False)
    @example(fixes=_annotated([1, True, 1.0, 0, False, 0.0, -0.0, math.nan, math.nan, [0], [0]]), share=True)
    @example(fixes=_annotated([1, True, 0, False, 1]), share=False)
    @example(fixes=_annotated(["transit", "port", "transit", None, None]), share=True)
    @settings(max_examples=100, deadline=None)
    def test_request_batches_round_trip_bit_equal(self, fixes, share):
        if share and fixes:
            # One dict object behind two fixes.
            fixes = [*fixes, replace(fixes[0], t=-1.0)]
        decoded, columns = decode_request(encode_request(fixes))
        assert [_exact_fix(f) for f in decoded] == [_exact_fix(f) for f in fixes]
        # Every decoded fix owns its annotations dict, as constructed ones do.
        assert len({id(f.annotations) for f in decoded}) == len(decoded)
        # The columns the worker screens are the ones it would have built.
        assert _exact_columns(columns) == _exact_columns(FixColumns.of(decoded))

    @given(data=st.data(), fixes=st.lists(_position_fixes, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_replies_by_reference_round_trip(self, data, fixes):
        """Raw and clean records come back as the caller's own fix objects,
        in the worker's drained order, with the worker's stamps; derived
        records come back equal, `compare=False` payload included."""
        n = len(fixes)
        stamps = data.draw(st.lists(_stamps, min_size=n, max_size=n))
        raw_rows = data.draw(st.permutations(range(n)))
        clean_rows = [i for i in data.draw(st.permutations(range(n))) if data.draw(st.booleans())]
        worker_fixes, _ = decode_request(encode_request(fixes))

        def records(rows, of):
            return [Record(of[i].t, of[i], of[i].entity_id, stamps[i]) for i in rows]

        derived = {
            TOPIC_SYNOPSES: [
                Record(f.t, CriticalPoint(f, "turn", {"weather": {"wave_m": 1.5}}), f.entity_id, 7.0)
                for f in worker_fixes[:3]
            ],
            TOPIC_LINKS: [Record(1.0, Link("vessel-a", "port-1", "geosparql:nearTo", 1.0, 12.5), "vessel-a")],
        }
        harvest = data.draw(_harvests())
        frame = encode_reply(
            worker_fixes,
            {
                TOPIC_RAW: records(raw_rows, worker_fixes),
                TOPIC_CLEAN: records(clean_rows, worker_fixes),
                **derived,
            },
            harvest=harvest,
        )
        reply, topics = decode_reply(frame, fixes)
        assert reply.harvest == harvest
        for name, rows in ((TOPIC_RAW, raw_rows), (TOPIC_CLEAN, clean_rows)):
            assert [id(r.value) for r in topics[name]] == [id(fixes[i]) for i in rows]
            assert [r.ingest_wall_s for r in topics[name]] == [stamps[i] for i in rows]
            assert [(_exact(r.t), r.key) for r in topics[name]] == [
                (_exact(fixes[i].t), fixes[i].entity_id) for i in rows
            ]
        for name, sent in derived.items():
            assert [r.ingest_wall_s for r in topics[name]] == [r.ingest_wall_s for r in sent]
            assert [getattr(r.value, "detail", None) for r in topics[name]] == [
                getattr(r.value, "detail", None) for r in sent
            ]
            assert [
                _exact_fix(r.value.fix) for r in topics[name] if isinstance(r.value, CriticalPoint)
            ] == [_exact_fix(r.value.fix) for r in sent if isinstance(r.value, CriticalPoint)]
        assert topics[TOPIC_LINKS] == derived[TOPIC_LINKS]

    def test_reply_refuses_what_it_cannot_reference(self):
        fixes = [PositionFix("vessel-a", float(i), 1.0, 2.0) for i in range(4)]
        stray = PositionFix("vessel-a", 9.0, 1.0, 2.0)

        def reply(raw, clean):
            topics = {
                TOPIC_RAW: [Record(f.t, f, f.entity_id, 5.0) for f in raw],
                TOPIC_CLEAN: [Record(f.t, f, f.entity_id, stamp) for f, stamp in clean],
            }
            return encode_reply(fixes, topics, harvest=None)

        assert reply(fixes, [(fixes[1], 5.0)])
        for raw in (fixes[:3], [*fixes, stray], [*fixes[:3], fixes[0]], [*fixes[:3], stray]):
            with pytest.raises(ValueError, match="raw topic"):
                reply(raw, [])
        for clean in ([(stray, 5.0)], [(fixes[1], 6.0)]):
            with pytest.raises(ValueError, match="clean topic"):
                reply(fixes, clean)

    @given(
        fix=st.builds(
            PositionFix,
            entity_id=st.sampled_from(["vessel-a", "vessel-b"]),
            t=_finite, lon=_finite, lat=_finite,
            speed=st.one_of(st.none(), _finite),
            annotations=_annotations,
        ),
        stamp=st.one_of(st.none(), _stamps),
        distance=_finite,
    )
    @settings(max_examples=60, deadline=None)
    def test_positional_reduce_round_trips(self, fix, stamp, distance):
        point = CriticalPoint(fix, "stop_start", {"weather": {"wind_u_ms": distance}})
        link = Link(fix.entity_id, "region-7", "dul:within", 3.0, distance)
        record = Record(3.0, point, fix.entity_id, stamp)
        for obj in (fix, point, link, record):
            assert _bit_equal_roundtrip(obj), type(obj).__name__
        # What == does not look at must survive too.
        clone = pickle.loads(pickle.dumps(record))
        assert clone.ingest_wall_s == stamp
        assert clone.value.detail == point.detail
        assert _exact(clone.value.fix.annotations) == _exact(fix.annotations)
