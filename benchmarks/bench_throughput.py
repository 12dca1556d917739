"""Columnar fast path — throughput of the batched vs per-record hot loops.

Two workloads at ~10x the tier-1 test scale, each timing the old
per-record path against the batched/vectorized fast path on identical
inputs and asserting the outputs match:

* **broker** — publish+poll records/s through a keyed multi-partition
  topic: per-record ``Topic.publish`` vs ``Topic.publish_many`` chunks,
  both drained through ``Consumer.poll``;
* **pushdown** — the E5 star join with a spatio-temporal constraint on
  the scaled AIS corpus (~0.5M triples): ``KGStore.execute`` with the
  scalar scan (``vectorized=False``) vs the columnar scan.
* **geo pip** — point-in-polygon verdicts over vertex-heavy region
  boundaries: the scalar ``Polygon.contains`` loop vs
  ``Polygon.contains_batch`` (the ``repro.geo.kernels`` batch path),
  asserting bit-for-bit identical verdicts.
* **link discovery** — ``RegionLinkDiscoverer.discover`` per-fix
  (``vectorized=False``) vs the batched mask-prune + cell-grouped
  refinement path, asserting identical link sets and prune verdicts.
* **sharded** — a keyed windowing pipeline on the single-shard oracle
  vs ``N_SHARDS`` key-partitioned replicas (``repro.streams.sharding``),
  asserting the canonically merged outputs are identical. The gated
  speedup is the *critical-path* ratio ``sum(shard walls) / max(shard
  walls)`` — the factor an N-core schedule of these shards gains, which
  is runner-independent (it measures routing balance, not how many
  cores the CI box happens to have).
* **pool** — the same pipeline with its replicas in warm worker
  processes (``worker_pool=True``), round by round against the
  in-process oracle: measured and persisted, deliberately not gated
  (see ``test_pool_steadystate_throughput``).
* **sharded observability** — the distributed obs plane over a full
  ``ShardedRealtimeLayer`` run: the folded parent registry's aggregate
  counters must equal the single-shard oracle's exactly, every merged
  counter must equal the sum of its ``shard.<i>.*`` parts (the
  ``consistency`` entries ``tools/perf_gate.py`` enforces over this
  bench's snapshot), and ``e2e.record_latency_s`` — ingest wall stamp to
  merged-stream consumption — must be populated.

Besides the usual ``BENCH_obs.json`` snapshot, this bench persists
``BENCH_throughput.json`` at the repo root — the input for the
*enforcing* throughput floors in ``tools/perf_budget.json`` (see
``tools/perf_gate.py``): speedups below the floors fail CI even under
``--warn-only``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
from pathlib import Path
from time import perf_counter

import pytest

from repro.core import ShardedRealtimeLayer, SystemConfig
from repro.datasources import AISConfig, AISSimulator, DEFAULT_BBOX, generate_regions
from repro.geo import BBox, PositionFix
from repro.linkdiscovery import RegionLinkDiscoverer
from repro.kgstore import KGStore, STConstraint, star
from repro.obs import MetricsRegistry, harvest_obs
from repro.rdf import A, VOC, var
from repro.rdf.rdfizers import raw_fix_rdfizer, synopses_rdfizer
from repro.streams import (
    Broker,
    Map,
    Pipeline,
    Record,
    ShardedPipeline,
    TumblingWindow,
    WatermarkAssigner,
    mean_aggregate,
    merge_shard_outputs,
)
from repro.synopses import SynopsesGenerator

from _tables import format_table

#: Broker workload: 10x the ~20k-record tier-1 streaming workloads.
N_RECORDS = 200_000
N_PARTITIONS = 4
N_KEYS = 64
PUBLISH_CHUNK = 2_048
POLL_CHUNK = 4_096

#: The selective-window star query of bench_kgstore (E5 regime).
WINDOW = STConstraint(BBox(8.0, 36.0, 12.0, 39.0), 0.0, 2 * 3600.0)

#: Accumulated results, rewritten to BENCH_throughput.json after each test.
_RESULTS: dict[str, dict] = {}


def _provenance() -> dict:
    """Host facts every floor comparison needs to be interpretable."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload_scale": {
            "broker_records": N_RECORDS,
            "sharded_shards": N_SHARDS,
            "pool_rounds": POOL_ROUNDS,
            "pool_round_records": POOL_ROUND_RECORDS,
            "pool_warmup_rounds": POOL_WARMUP_ROUNDS,
        },
    }


def _persist() -> Path:
    _RESULTS["provenance"] = _provenance()
    path = Path(__file__).resolve().parents[1] / "BENCH_throughput.json"
    path.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")
    return path


def node_query(st=WINDOW):
    return star(
        "node",
        (A, VOC.RawPosition),
        (VOC.timestamp, var("t")),
        (VOC.asWKT, var("wkt")),
        st=st,
    )


# -- broker: per-record vs batched publish+poll ------------------------------------


def _make_records(n: int) -> list[Record]:
    rng = random.Random(11)
    keys = [f"vessel-{i:03d}" for i in range(N_KEYS)]
    return [Record(float(i), i, key=keys[rng.randrange(N_KEYS)]) for i in range(n)]


def _publish_poll_per_record(records: list[Record]) -> tuple[float, list[Record]]:
    broker = Broker()
    topic = broker.create_topic("bench.per_record", partitions=N_PARTITIONS)
    consumer = broker.consumer("bench.per_record", "bench")
    start = perf_counter()
    for record in records:
        topic.publish(record)
    out: list[Record] = []
    while True:
        batch = consumer.poll(max_messages=POLL_CHUNK)
        if not batch:
            break
        out.extend(batch)
    return perf_counter() - start, out


def _publish_poll_batched(records: list[Record]) -> tuple[float, list[Record]]:
    broker = Broker()
    topic = broker.create_topic("bench.batched", partitions=N_PARTITIONS)
    consumer = broker.consumer("bench.batched", "bench")
    start = perf_counter()
    for i in range(0, len(records), PUBLISH_CHUNK):
        topic.publish_many(records[i : i + PUBLISH_CHUNK])
    out: list[Record] = []
    while True:
        batch = consumer.poll(max_messages=POLL_CHUNK)
        if not batch:
            break
        out.extend(batch)
    return perf_counter() - start, out


def test_broker_publish_poll_throughput(console, benchmark, emit_metrics):
    records = _make_records(N_RECORDS)
    per_record_times: list[float] = []
    batched_times: list[float] = []
    for _ in range(3):
        elapsed, out_base = _publish_poll_per_record(records)
        per_record_times.append(elapsed)
        elapsed, out_fast = _publish_poll_batched(records)
        batched_times.append(elapsed)
        # The fast path must deliver the identical stream.
        assert [(r.t, r.value, r.key) for r in out_fast] == [
            (r.t, r.value, r.key) for r in out_base
        ]
    per_record_s = statistics.median(per_record_times)
    batched_s = statistics.median(batched_times)
    speedup = per_record_s / batched_s
    _RESULTS["broker"] = {
        "records": N_RECORDS,
        "partitions": N_PARTITIONS,
        "keys": N_KEYS,
        "publish_chunk": PUBLISH_CHUNK,
        "per_record": {"publish_poll_s": per_record_s, "records_s": N_RECORDS / per_record_s},
        "batched": {"publish_poll_s": batched_s, "records_s": N_RECORDS / batched_s},
        "speedup": speedup,
    }
    path = _persist()
    registry = MetricsRegistry()
    registry.gauge("throughput.broker.per_record_records_s").set(N_RECORDS / per_record_s)
    registry.gauge("throughput.broker.batched_records_s").set(N_RECORDS / batched_s)
    registry.gauge("throughput.broker.speedup").set(speedup)
    with console():
        print(format_table(
            f"Broker publish+poll, {N_RECORDS:,} keyed records over {N_PARTITIONS} partitions",
            ["path", "wall", "records/s"],
            [
                ["per-record publish", f"{per_record_s * 1e3:.0f} ms", f"{N_RECORDS / per_record_s:,.0f}"],
                ["publish_many batches", f"{batched_s * 1e3:.0f} ms", f"{N_RECORDS / batched_s:,.0f}"],
            ],
            width=22,
        ))
        print(f"speedup: {speedup:.2f}x  -> {path.name}")
    assert speedup > 2.0, f"batched broker path only {speedup:.2f}x faster"
    benchmark(lambda: _publish_poll_batched(records))
    emit_metrics(registry, benchmark, title="broker throughput (columnar fast path)")


# -- kgstore: scalar vs vectorized pushdown scan -----------------------------------


@pytest.fixture(scope="module")
def store():
    """The bench_kgstore corpus: ~0.5M triples, ~10x the tier-1 tests."""
    sim = AISSimulator(
        n_vessels=150, seed=37,
        config=AISConfig(report_period_s=30.0, gap_probability_per_hour=0.0, outlier_probability=0.0),
    )
    fixes = list(sim.fixes(0.0, 6 * 3600.0))
    gen = SynopsesGenerator()
    points = list(gen.process_stream(fixes)) + gen.flush()
    triples = list(synopses_rdfizer(points).triples())
    triples += list(raw_fix_rdfizer(fixes).triples())
    kg = KGStore(DEFAULT_BBOX, t_origin=0.0, t_extent_s=6 * 3600.0,
                 layout="property_table", grid_cols=72, grid_rows=32, t_slots=48,
                 registry=MetricsRegistry())
    kg.load(triples)
    return kg


def test_pushdown_scan_vectorized(store, console, benchmark, emit_metrics):
    kg = store
    query = node_query()
    scalar_times: list[float] = []
    vector_times: list[float] = []
    for _ in range(5):
        start = perf_counter()
        scalar_bindings, _ = kg.execute(query, pushdown=True, vectorized=False)
        scalar_times.append(perf_counter() - start)
        start = perf_counter()
        vector_bindings, _ = kg.execute(query, pushdown=True, vectorized=True)
        vector_times.append(perf_counter() - start)
        assert vector_bindings == scalar_bindings
    scalar_s = statistics.median(scalar_times)
    vector_s = statistics.median(vector_times)
    speedup = scalar_s / vector_s
    _RESULTS["pushdown"] = {
        "triples": len(kg),
        "layout": "property_table",
        "results": len(vector_bindings),
        "scalar_scan_s": scalar_s,
        "vectorized_scan_s": vector_s,
        "speedup": speedup,
    }
    path = _persist()
    registry = kg.registry
    registry.gauge("throughput.pushdown.scalar_scan_s").set(scalar_s)
    registry.gauge("throughput.pushdown.vectorized_scan_s").set(vector_s)
    registry.gauge("throughput.pushdown.speedup").set(speedup)
    with console():
        print(format_table(
            f"Pushdown star scan over {len(kg):,} triples (property_table)",
            ["scan", "median latency", "results"],
            [
                ["scalar rows", f"{scalar_s * 1e3:.1f} ms", len(scalar_bindings)],
                ["vectorized columns", f"{vector_s * 1e3:.1f} ms", len(vector_bindings)],
            ],
            width=22,
        ))
        print(f"speedup: {speedup:.2f}x  -> {path.name}")
    assert speedup > 3.0, f"vectorized pushdown scan only {speedup:.2f}x faster"
    benchmark(lambda: kg.execute(query, pushdown=True, vectorized=True)[1].results)
    emit_metrics(registry, benchmark, title="kgstore scan throughput (columnar fast path)")


# -- geo: scalar vs batched point-in-polygon ---------------------------------------

PIP_POLYGONS = 40
PIP_POINTS_PER_POLYGON = 1_500


@pytest.fixture(scope="module")
def pip_workload():
    """Vertex-heavy polygons with probe points concentrated in their bboxes."""
    import numpy as np

    regions = generate_regions(PIP_POLYGONS, seed=42, vertex_range=(48, 192))
    rng = random.Random(7)
    workload = []
    for region in regions:
        box = region.polygon.bbox
        lons = np.asarray(
            [rng.uniform(box.min_lon, box.max_lon) for _ in range(PIP_POINTS_PER_POLYGON)]
        )
        lats = np.asarray(
            [rng.uniform(box.min_lat, box.max_lat) for _ in range(PIP_POINTS_PER_POLYGON)]
        )
        workload.append((region.polygon, lons, lats))
    return workload


def test_geo_pip_vectorized(pip_workload, console, benchmark, emit_metrics):
    scalar_times: list[float] = []
    batch_times: list[float] = []
    for _ in range(3):
        start = perf_counter()
        scalar_verdicts = [
            [polygon.contains(x, y) for x, y in zip(lons.tolist(), lats.tolist())]
            for polygon, lons, lats in pip_workload
        ]
        scalar_times.append(perf_counter() - start)
        start = perf_counter()
        batch_verdicts = [
            polygon.contains_batch(lons, lats) for polygon, lons, lats in pip_workload
        ]
        batch_times.append(perf_counter() - start)
        # Bit-for-bit identical verdicts, boundary cases included.
        for got, want in zip(batch_verdicts, scalar_verdicts):
            assert got.tolist() == want
    scalar_s = statistics.median(scalar_times)
    batch_s = statistics.median(batch_times)
    speedup = scalar_s / batch_s
    n_tests = PIP_POLYGONS * PIP_POINTS_PER_POLYGON
    _RESULTS["geo"] = {
        "pip": {
            "polygons": PIP_POLYGONS,
            "points": n_tests,
            "scalar_s": scalar_s,
            "batch_s": batch_s,
            "speedup": speedup,
        }
    }
    path = _persist()
    registry = MetricsRegistry()
    registry.gauge("throughput.geo.pip.scalar_tests_s").set(n_tests / scalar_s)
    registry.gauge("throughput.geo.pip.batch_tests_s").set(n_tests / batch_s)
    registry.gauge("throughput.geo.pip.speedup").set(speedup)
    with console():
        print(format_table(
            f"Point-in-polygon, {n_tests:,} tests over {PIP_POLYGONS} vertex-heavy polygons",
            ["path", "wall", "tests/s"],
            [
                ["scalar contains loop", f"{scalar_s * 1e3:.0f} ms", f"{n_tests / scalar_s:,.0f}"],
                ["contains_batch", f"{batch_s * 1e3:.0f} ms", f"{n_tests / batch_s:,.0f}"],
            ],
            width=22,
        ))
        print(f"speedup: {speedup:.2f}x  -> {path.name}")
    assert speedup > 3.0, f"batched point-in-polygon only {speedup:.2f}x faster"
    benchmark(lambda: [
        polygon.contains_batch(lons, lats) for polygon, lons, lats in pip_workload
    ])
    emit_metrics(registry, benchmark, title="geo point-in-polygon (batch kernels)")


# -- link discovery: per-fix refinement loop vs batched discover -------------------

LD_REGIONS = 1_500
LD_FIXES = 8_000


@pytest.fixture(scope="module")
def linkdiscovery_workload():
    """The bench_link_discovery traffic shape at throughput-bench scale."""
    regions = generate_regions(LD_REGIONS, seed=42, vertex_range=(24, 96))
    rng = random.Random(99)
    fixes = []
    for i in range(LD_FIXES):
        if rng.random() < 0.7:
            cx, cy = rng.choice(regions).polygon.centroid()
            lon, lat = cx + rng.gauss(0.0, 0.25), cy + rng.gauss(0.0, 0.2)
        else:
            lon = rng.uniform(DEFAULT_BBOX.min_lon, DEFAULT_BBOX.max_lon)
            lat = rng.uniform(DEFAULT_BBOX.min_lat, DEFAULT_BBOX.max_lat)
        lon = min(max(lon, DEFAULT_BBOX.min_lon), DEFAULT_BBOX.max_lon)
        lat = min(max(lat, DEFAULT_BBOX.min_lat), DEFAULT_BBOX.max_lat)
        fixes.append(PositionFix(entity_id=f"v{i % 200}", t=float(i), lon=lon, lat=lat))
    return regions, fixes


def test_linkdiscovery_vectorized(linkdiscovery_workload, console, benchmark, emit_metrics):
    regions, fixes = linkdiscovery_workload
    make = lambda: RegionLinkDiscoverer(  # noqa: E731
        regions, DEFAULT_BBOX, cell_deg=0.5, near_threshold_m=10_000.0, use_masks=True
    )
    scalar_ld, batch_ld = make(), make()
    scalar_times: list[float] = []
    batch_times: list[float] = []
    for _ in range(3):
        start = perf_counter()
        scalar_result = scalar_ld.discover(fixes, vectorized=False)
        scalar_times.append(perf_counter() - start)
        start = perf_counter()
        batch_result = batch_ld.discover(fixes, vectorized=True)
        batch_times.append(perf_counter() - start)
        # Identical link sets (distances bit-for-bit) and prune verdicts.
        assert set(batch_result.links) == set(scalar_result.links)
        assert batch_result.mask_pruned == scalar_result.mask_pruned
        assert batch_result.refinements == scalar_result.refinements
    scalar_s = statistics.median(scalar_times)
    batch_s = statistics.median(batch_times)
    speedup = scalar_s / batch_s
    _RESULTS["linkdiscovery"] = {
        "regions": LD_REGIONS,
        "fixes": LD_FIXES,
        "links": len(batch_result.links),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": speedup,
    }
    path = _persist()
    registry = MetricsRegistry()
    registry.gauge("throughput.linkdiscovery.scalar_fixes_s").set(LD_FIXES / scalar_s)
    registry.gauge("throughput.linkdiscovery.batch_fixes_s").set(LD_FIXES / batch_s)
    registry.gauge("throughput.linkdiscovery.speedup").set(speedup)
    with console():
        print(format_table(
            f"Region link discovery, {LD_FIXES:,} fixes against {LD_REGIONS:,} regions",
            ["path", "wall", "fixes/s"],
            [
                ["per-fix links_for", f"{scalar_s * 1e3:.0f} ms", f"{LD_FIXES / scalar_s:,.0f}"],
                ["batched discover", f"{batch_s * 1e3:.0f} ms", f"{LD_FIXES / batch_s:,.0f}"],
            ],
            width=22,
        ))
        print(f"speedup: {speedup:.2f}x  -> {path.name}")
    assert speedup > 2.0, f"batched link discovery only {speedup:.2f}x faster"
    benchmark(lambda: batch_ld.discover(fixes, vectorized=True))
    emit_metrics(registry, benchmark, title="link discovery (batched mask-prune + refine)")


# -- sharded substrate: single-shard oracle vs N keyed shards ----------------------

N_SHARDS = 4
SHARD_WINDOW_S = 60.0
SHARD_OOO_S = 120.0


def _shard_stage_pipeline() -> Pipeline:
    """One replica of the bench workload: a map stage into keyed windows."""
    return Pipeline(
        [Map(lambda v: v * 2 + 1), TumblingWindow(SHARD_WINDOW_S, mean_aggregate)],
        name="bench.sharded",
    )


def _shard_assigner() -> WatermarkAssigner:
    return WatermarkAssigner(out_of_orderness_s=SHARD_OOO_S)


def _canonical(records: list[Record]) -> list[tuple]:
    return [(r.t, r.key, r.value) for r in records]


def test_sharded_pipeline_throughput(console, benchmark, emit_metrics):
    records = _make_records(N_RECORDS)
    single_times: list[float] = []
    speedups: list[float] = []
    shard_walls: list[float] = []
    for _ in range(3):
        single = _shard_stage_pipeline()
        out_base = single.run(records, watermarks=_shard_assigner(), flush=True)
        single_times.append(single.wall_seconds)
        sharded = ShardedPipeline(
            _shard_stage_pipeline, N_SHARDS, watermark_factory=_shard_assigner
        )
        out_sharded = sharded.run_to_end(records)
        # The N-shard merge must reproduce the single-shard oracle exactly.
        assert _canonical(out_sharded) == _canonical(merge_shard_outputs([out_base]))
        speedups.append(sharded.critical_path_speedup())
        shard_walls = sharded.wall_seconds()
    single_s = statistics.median(single_times)
    speedup = statistics.median(speedups)
    _RESULTS["sharded"] = {
        "records": N_RECORDS,
        "shards": N_SHARDS,
        "keys": N_KEYS,
        "single_wall_s": single_s,
        "shard_walls_s": shard_walls,
        "critical_path_s": max(shard_walls),
        "speedup": speedup,
    }
    path = _persist()
    registry = MetricsRegistry()
    registry.gauge("throughput.sharded.single_records_s").set(N_RECORDS / single_s)
    registry.gauge("throughput.sharded.critical_path_records_s").set(
        N_RECORDS / max(shard_walls)
    )
    registry.gauge("throughput.sharded.speedup").set(speedup)
    with console():
        print(format_table(
            f"Sharded windowing, {N_RECORDS:,} keyed records over {N_SHARDS} shards",
            ["path", "wall", "records/s"],
            [
                ["single shard (oracle)", f"{single_s * 1e3:.0f} ms", f"{N_RECORDS / single_s:,.0f}"],
                ["slowest of 4 shards", f"{max(shard_walls) * 1e3:.0f} ms", f"{N_RECORDS / max(shard_walls):,.0f}"],
            ],
            width=22,
        ))
        print(f"critical-path speedup: {speedup:.2f}x  -> {path.name}")
    assert speedup > 2.0, f"sharded critical path only {speedup:.2f}x the aggregate"
    benchmark(lambda: ShardedPipeline(
        _shard_stage_pipeline, N_SHARDS, watermark_factory=_shard_assigner
    ).run_to_end(records))
    emit_metrics(registry, benchmark, title="sharded substrate (critical-path balance)")


# -- worker pool: steady-state repeated runs against warm replicas ------------------

POOL_ROUNDS = 8
POOL_ROUND_RECORDS = 2_000
POOL_WARMUP_ROUNDS = 2


def _pool_round_records(round_idx: int) -> list[Record]:
    base = round_idx * POOL_ROUND_RECORDS
    rng = random.Random(1_000 + round_idx)
    keys = [f"vessel-{i:03d}" for i in range(N_KEYS)]
    return [
        Record(float(base + i), base + i, key=keys[rng.randrange(N_KEYS)])
        for i in range(POOL_ROUND_RECORDS)
    ]


def test_pool_steadystate_throughput(console, benchmark, emit_metrics):
    """N repeated incremental requests against warm worker replicas: the
    pool keeps the replica state alive between rounds, so serving round
    ``i`` is one batched IPC exchange over the new chunk only. After
    POOL_WARMUP_ROUNDS untimed rounds every pooled round is timed and
    must be byte-identical to the in-process ``worker_pool=False`` oracle
    fed the same chunk, whose round wall is recorded beside the pool's.

    The two walls are measured, **not gated against each other**: on a
    2-core box these 8 x 2 000-record rounds take about 18.6 ms
    in-process and 31.4 ms pooled (0.59x) — a two-operator micro-stage
    cannot amortise IPC, and a ratio against it would gate the host, not
    the code. The pooled path's real figure is ``ais_pool`` against
    ``ais_bulk`` in ``benchmarks/e2e``, the whole Figure-2 chain per
    shard, which the pipeline already gates."""
    rounds = [_pool_round_records(i) for i in range(POOL_WARMUP_ROUNDS + POOL_ROUNDS)]
    pool_times: list[float] = []
    sequential_times: list[float] = []
    oracle = ShardedPipeline(
        _shard_stage_pipeline, N_SHARDS, watermark_factory=_shard_assigner
    )
    with ShardedPipeline(
        _shard_stage_pipeline, N_SHARDS, watermark_factory=_shard_assigner,
        worker_pool=True,
    ) as pool:
        for i, chunk in enumerate(rounds):
            start = perf_counter()
            out = pool.run(chunk)
            pooled_s = perf_counter() - start
            start = perf_counter()
            expected = oracle.run(chunk)
            sequential_s = perf_counter() - start
            # Determinism: every pooled round matches the in-process oracle.
            assert _canonical(out) == _canonical(expected)
            if i >= POOL_WARMUP_ROUNDS:
                pool_times.append(pooled_s)
                sequential_times.append(sequential_s)
        assert _canonical(pool.finish()) == _canonical(oracle.finish())
        setup_s = sum(pool.setup_seconds())
    pool_s = statistics.median(pool_times)
    sequential_s = statistics.median(sequential_times)
    _RESULTS["pool"] = {
        "shards": N_SHARDS,
        "rounds": POOL_ROUNDS,
        "round_records": POOL_ROUND_RECORDS,
        "warmup_rounds": POOL_WARMUP_ROUNDS,
        "steadystate": {
            "round_s": pool_s,
            "records_s": POOL_ROUND_RECORDS / pool_s,
            "setup_s": setup_s,
        },
        "sequential": {
            "round_s": sequential_s,
            "records_s": POOL_ROUND_RECORDS / sequential_s,
        },
    }
    path = _persist()
    registry = MetricsRegistry()
    registry.gauge("throughput.pool.steadystate.round_s").set(pool_s)
    registry.gauge("throughput.pool.steadystate.setup_s").set(setup_s)
    registry.gauge("throughput.pool.sequential.round_s").set(sequential_s)
    with console():
        print(format_table(
            f"Worker pool steady state, {POOL_ROUNDS} rounds x "
            f"{POOL_ROUND_RECORDS:,} new records over {N_SHARDS} shards",
            ["path", "round wall", "per-request rate"],
            [
                ["in-process (oracle)", f"{sequential_s * 1e3:.1f} ms", f"{POOL_ROUND_RECORDS / sequential_s:,.0f}"],
                ["persistent pool", f"{pool_s * 1e3:.1f} ms", f"{POOL_ROUND_RECORDS / pool_s:,.0f}"],
            ],
            width=22,
        ))
        print(f"replica setup {setup_s * 1e3:.1f} ms, paid once  -> {path.name}")
    with ShardedPipeline(
        _shard_stage_pipeline, N_SHARDS, watermark_factory=_shard_assigner,
        worker_pool=True,
    ) as bench_pool:
        def one_stream():
            bench_pool.run_to_end(rounds[-1])
            bench_pool.reset()

        benchmark(one_stream)
        emit_metrics(registry, benchmark, title="worker pool (steady-state runs)")


# -- distributed obs plane: merged harvest vs the single-shard oracle --------------

OBS_VESSELS = 40
OBS_HOURS = 2.0

#: The merged counter families whose per-shard completeness the perf
#: gate's ``consistency`` section re-checks over this bench's snapshot.
OBS_CONSISTENCY_FAMILIES = ("op.clean.records_in", "stage.raw.records")


def _obs_fixes() -> list:
    sim = AISSimulator(
        n_vessels=OBS_VESSELS, seed=19, config=AISConfig(report_period_s=30.0)
    )
    return list(sim.fixes(0.0, OBS_HOURS * 3600.0))


def _merged_counters(layer: ShardedRealtimeLayer) -> dict[str, int]:
    return {
        name: value
        for name, value in layer.metrics.counters().items()
        if not name.startswith("shard.")
    }


def test_sharded_observability(console, benchmark, emit_metrics):
    fixes = _obs_fixes()
    oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1))
    oracle.run(fixes)
    layer = ShardedRealtimeLayer(SystemConfig(n_shards=N_SHARDS))
    start = perf_counter()
    report = layer.run(fixes)
    run_wall_s = perf_counter() - start
    # The folded plane must be lossless: merged report and merged
    # aggregate counters equal the single-shard oracle's exactly.
    assert report == oracle.report
    merged = _merged_counters(layer)
    assert merged == _merged_counters(oracle)
    for family in OBS_CONSISTENCY_FAMILIES:
        parts = sum(
            value
            for name, value in layer.metrics.counters().items()
            if name.startswith("shard.") and name.endswith(f".{family}")
        )
        assert parts == merged[family], f"{family}: shard parts {parts} != merged"
    e2e = layer.metrics.histogram("e2e.record_latency_s")
    assert e2e.count > 0, "no end-to-end record latency observed on the merged stream"
    _RESULTS["observability"] = {
        "fixes": len(fixes),
        "shards": N_SHARDS,
        "run_wall_s": run_wall_s,
        "critical_path_speedup": layer.critical_path_speedup(),
        "merged_counters": len(merged),
        "e2e_count": e2e.count,
        "e2e_p99_s": e2e.quantile(0.99),
    }
    path = _persist()
    with console():
        print(format_table(
            f"Sharded obs plane, {len(fixes):,} fixes over {N_SHARDS} replica shards",
            ["view", "counters", "e2e p99"],
            [
                ["1-shard oracle", len(_merged_counters(oracle)), "-"],
                [f"{N_SHARDS}-shard fold", len(merged), f"{e2e.quantile(0.99) * 1e3:.1f} ms"],
            ],
            width=22,
        ))
        print(f"harvest lossless over {len(merged)} families  -> {path.name}")
    # The hot path the plane adds per run: one replica's full harvest.
    benchmark(lambda: harvest_obs(
        0, layer.shards[0].metrics, layer.shards[0].events, layer.shards[0].tracer
    ))
    emit_metrics(layer.metrics, benchmark, title="sharded observability (merged harvest)")
