"""Workloads of the Figure-2 end-to-end benchmark and their seeded inputs.

A workload fixes the *scenario* — fleet, routes, regimes and reporting
gaps (the simulator's own seeds), number of raw fixes, poll size,
execution path, the ``SystemConfig`` fields it names, the ingest/query
schedule, the query boxes and the repetition count R. ``--seed`` draws
the *sensor realisation* of that scenario: every fix gets fresh GPS
noise and report-time jitter. The program under test only ever sees
``list[PositionFix]`` (plus the fixed CEP training symbols, which are
configuration, not input).

Why the seed does not re-draw the fleet: the driver runs every workload
on many seeds and requires each metric's quartile spread over them to
stay inside its bound. Re-seeding the simulator moves the amount of work
itself — over seeds 1..10 triples per fix varied by ±9 %, proximity
links 3x, and with them ``kg_ingest_s`` by 10 % and ``poll_p50_ms`` on
the pooled path by 14 % (shard balance) — which would bury a 10 %
regression. Realisations of one scenario differ in every coordinate and
timestamp but keep record counts within 0.5 %.

Input size is a fix count, not a duration: the simulator runs until
exactly ``n_fixes`` reports exist.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from itertools import islice

from repro.cep import symbol_sequence, turn_event_stream
from repro.datasources import (
    AISConfig,
    AISSimulator,
    fishing_vessel_stream,
    generate_vessel_registry,
)
from repro.geo import BBox, PositionFix
from repro.synopses import SynopsesGenerator

#: Run length (``run_seconds`` in BENCHMARK.json) the repetition counts
#: below are sized for on the 2-vCPU sandbox.
DESIGN_SECONDS = 30.0
#: Construct-and-close extras at run start, at the design run length.
SETUP_EXTRAS = 12
#: Repetitions of the traced run, at the design run length.
TRACE_REPS = 10
#: Each query set is issued this many times per repetition: a range query
#: is a sub-millisecond unit, read-only on the store, and needs the samples.
QUERY_PASSES = 3
#: The simulator is cut off by fix count; this only has to be far away.
_HORIZON_S = 24 * 3600.0
#: Simulator seed of every workload's scenario (and of its query boxes).
_SCENARIO_SEED = 1
#: Sensor realisation drawn per ``--seed``: 1-sigma position noise (the
#: simulator's own GPS noise level) and half-width of the report-time
#: jitter, well under the 8.5 s minimum report spacing of one vessel.
_GPS_NOISE_M = 12.0
_TIME_JITTER_S = 1.0
_M_PER_DEG = 111_320.0
#: Share of the bounding box (per axis) and of the stream's time span
#: that one range query covers.
_QUERY_SPACE_SHARE = 0.4
_QUERY_TIME_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; see the README table for the rationale."""

    name: str
    why: str
    fleet: str                      # "ais" | "trawl"
    n_vessels: int
    n_fixes: int                    # raw fixes per repetition at --scale 1
    poll: int                       # fixes handed to one run() call
    reps: int                       # R at DESIGN_SECONDS
    pooled: bool = False            # ShardedRealtimeLayer(worker_pool=True)
    config: dict = field(default_factory=dict)   # SystemConfig fields named
    cep: bool = False
    ingest_every: int = 0           # polls between ingests; 0 = once, at the end
    queries_per_ingest: int = 0     # range queries after each mid-stream ingest
    queries_at_end: int = 24

    def ingests_after(self, poll: int, last_poll: int) -> bool:
        """Whether the schedule drains the synopses topic after this poll."""
        return poll == last_poll or bool(self.ingest_every and (poll + 1) % self.ingest_every == 0)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ais_bulk",
            why="large polls: per-fix clean, area events and synopses dominate the replay",
            fleet="ais", n_vessels=100, n_fixes=12_288, poll=2048, reps=40,
        ),
        Workload(
            name="ais_tick",
            why="many small run() calls: per-call flush, link discovery, broker and bulk KG load",
            fleet="ais", n_vessels=100, n_fixes=2_048, poll=128, reps=56,
        ),
        Workload(
            name="ais_pool",
            why="2 shard workers: IPC frames, shard merge, harvest fold, global proximity",
            fleet="ais", n_vessels=100, n_fixes=8_192, poll=2048, reps=30,
            pooled=True, config={"n_shards": 2, "worker_pool": True},
        ),
        Workload(
            name="trawl_rw",
            why="KG writes beside reads: incremental ingests reload the graph, queries between, CEP on",
            fleet="trawl", n_vessels=50, n_fixes=8_192, poll=512, reps=34,
            config={"n_regions": 400, "n_ports": 80}, cep=True,
            ingest_every=4, queries_per_ingest=8, queries_at_end=40,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run replays, generated once and untimed."""

    polls: list[list[PositionFix]]
    queries: list[tuple[BBox, float, float]]
    cep_symbols: list[str] | None
    n_fixes: int
    digest: str


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _trawl_fleet(n_vessels: int, seed: int):
    """Four fishing vessels to every other one, drawn from the registry."""
    n_other = max(1, n_vessels // 5)
    n_fishing = max(1, n_vessels - n_other)
    registry = generate_vessel_registry(20 * n_vessels + 40, seed=seed + 2)
    fishing = [v for v in registry if v.is_fishing][:n_fishing]
    other = [v for v in registry if not v.is_fishing][:n_other]
    if len(fishing) < n_fishing or len(other) < n_other:
        raise RuntimeError("vessel registry too small for the trawl fleet")
    return fishing + other


def scenario_fixes(workload: Workload, scale: float = 1.0) -> list[PositionFix]:
    """The workload's fixed scenario: exactly n_fixes * scale simulator reports."""
    n_vessels = _scaled(workload.n_vessels, scale)
    config = AISConfig(report_period_s=10.0)
    if workload.fleet == "trawl":
        sim = AISSimulator(seed=_SCENARIO_SEED, config=config, vessels=_trawl_fleet(n_vessels, _SCENARIO_SEED))
    else:
        sim = AISSimulator(n_vessels=n_vessels, seed=_SCENARIO_SEED, config=config)
    n_fixes = _scaled(workload.n_fixes, scale)
    fixes = list(islice(sim.fixes(0.0, _HORIZON_S), n_fixes))
    if len(fixes) != n_fixes:
        raise RuntimeError(f"simulator produced {len(fixes)} of {n_fixes} fixes")
    return fixes


def make_fixes(workload: Workload, seed: int, scale: float = 1.0) -> list[PositionFix]:
    """The raw fix stream for one seed: the scenario under a fresh sensor realisation."""
    rng = random.Random(seed)
    fixes = []
    for fix in scenario_fixes(workload, scale):
        north_m, east_m = rng.gauss(0.0, _GPS_NOISE_M), rng.gauss(0.0, _GPS_NOISE_M)
        fixes.append(replace(
            fix,
            t=fix.t + rng.uniform(-_TIME_JITTER_S, _TIME_JITTER_S),
            lat=fix.lat + north_m / _M_PER_DEG,
            lon=fix.lon + east_m / (_M_PER_DEG * math.cos(math.radians(fix.lat))),
        ))
    fixes.sort(key=lambda fix: fix.t)   # the feed is time-ordered; per-vessel order is untouched
    return fixes


def fix_digest(fixes: list[PositionFix]) -> str:
    """Digest of the raw stream: what "same seed, same inputs" means."""
    h = hashlib.blake2b(digest_size=8)
    for f in fixes:
        h.update(f"{f.entity_id}|{f.t!r}|{f.lon!r}|{f.lat!r}|{f.speed!r}|{f.heading!r}\n".encode())
    return h.hexdigest()


def make_queries(workload: Workload, bbox: BBox, t_end: float) -> list[tuple[BBox, float, float]]:
    """The scenario's space-time boxes, all of one size, enough for the whole schedule."""
    rng = random.Random(_SCENARIO_SEED * 7919 + 17)
    w, h = bbox.width * _QUERY_SPACE_SHARE, bbox.height * _QUERY_SPACE_SHARE
    span = t_end * _QUERY_TIME_SHARE
    boxes = []
    for _ in range(workload.queries_at_end):
        lon = rng.uniform(bbox.min_lon, bbox.max_lon - w)
        lat = rng.uniform(bbox.min_lat, bbox.max_lat - h)
        t0 = rng.uniform(0.0, t_end - span)
        boxes.append((BBox(lon, lat, lon + w, lat + h), t0, t0 + span))
    return boxes


def cep_training_symbols() -> list[str]:
    """Turn symbols of the fixed single-vessel training trajectory."""
    generator = SynopsesGenerator()
    points = [cp for fix in fishing_vessel_stream(seed=9) for cp in generator.process(fix)]
    points.extend(generator.flush())
    return symbol_sequence(turn_event_stream(points))


def make_inputs(workload: Workload, seed: int, bbox: BBox, scale: float = 1.0) -> Inputs:
    fixes = make_fixes(workload, seed, scale)
    polls = [fixes[i : i + workload.poll] for i in range(0, len(fixes), workload.poll)]
    return Inputs(
        polls=polls,
        queries=make_queries(workload, bbox, fixes[-1].t),
        cep_symbols=cep_training_symbols() if workload.cep else None,
        n_fixes=len(fixes),
        digest=fix_digest(fixes),
    )
