"""The traced run: spans around the benchmark's calls and the per-layer table.

Per-layer numbers come from a *stage replay*. A traced end-to-end
repetition drains the five topics after every poll; those records are
each layer's materialised input. The replay then drives every layer's
public API standalone over them, at the same poll boundaries, and times
one unit per (stage, poll) — a loop of per-fix calls over one poll's
input is one unit and one span. Stage components are taken from a fresh
``RealtimeLayer`` / ``BatchLayer`` built from the workload's config, so
they are configured exactly as the system under test configures them.
Stage units are floored across repetitions like every other unit.
"""

from __future__ import annotations

import gc
import pickle
from time import perf_counter
from typing import Any

import checks
import estimator
from harness import T_EXTENT_S, Rep, Spans, build_system, run_repetition
from repro.cep import turn_event_stream
from repro.core import BatchLayer, RealtimeLayer, SystemConfig
from repro.core.config import TOPIC_CLEAN, TOPIC_RAW, TOPIC_SYNOPSES
from repro.insitu import QualityReport, clean_stream
from repro.obs import EventLog, MetricsRegistry, Tracer, fold_harvests, harvest_obs
from repro.rdf.rdfizers import synopses_rdfizer
from repro.streams import Broker, merge_shard_outputs
from workloads import Inputs, Workload

#: name, unit, better — BENCHMARK.json's per_layer block is this table.
PER_LAYER = (
    ("insitu.clean_s", "s", "lower"),
    ("insitu.clean_in", "count", "lower"),
    ("insitu.clean_out", "count", "lower"),
    ("insitu.area_events_s", "s", "lower"),
    ("insitu.area_events_out", "count", "lower"),
    ("synopses.process_s", "s", "lower"),
    ("synopses.points_out", "count", "lower"),
    ("synopses.end_point_share", "ratio", "lower"),
    ("linkdiscovery.region_s", "s", "lower"),
    ("linkdiscovery.port_s", "s", "lower"),
    ("linkdiscovery.proximity_s", "s", "lower"),
    ("linkdiscovery.links_out", "count", "lower"),
    ("linkdiscovery.mask_pruned_share", "ratio", "higher"),
    ("cep.run_s", "s", "lower"),
    ("cep.events_in", "count", "lower"),
    ("cep.outputs", "count", "lower"),
    ("streams.broker_publish_s", "s", "lower"),
    ("streams.broker_poll_s", "s", "lower"),
    ("streams.broker_records", "count", "lower"),
    ("streams.workers_req_bytes", "bytes", "lower"),
    ("streams.workers_reply_bytes", "bytes", "lower"),
    ("streams.workers_pickle_s", "s", "lower"),
    ("streams.workers_busy_s", "s", "lower"),
    ("streams.workers_parent_wait_s", "s", "lower"),
    ("streams.merge_s", "s", "lower"),
    ("streams.shard_balance", "ratio", "higher"),
    ("obs.fold_s", "s", "lower"),
    ("obs.snapshot_s", "s", "lower"),
    ("rdf.rdfize_s", "s", "lower"),
    ("rdf.triples_out", "count", "lower"),
    ("kgstore.load_s", "s", "lower"),
    ("kgstore.triples", "count", "lower"),
    ("kgstore.reload_ratio", "ratio", "lower"),
    ("kgstore.execute_s", "s", "lower"),
    ("kgstore.rows_out", "count", "lower"),
    ("va.dashboard_ingest_s", "s", "lower"),
    ("va.render_frame_s", "s", "lower"),
    ("core.replay_s", "s", "lower"),
    ("core.poll_p90_ms", "ms", "lower"),
    ("core.unattributed_share", "ratio", "lower"),
    ("host.rep_median_over_floor", "ratio", "lower"),
    ("host.cpu_s_per_mfix", "s", "lower"),
    ("host.spin_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: Stage units that run inside a shard replica (in parallel on the pooled
#: path) and stage units that are serial in the layer that owns the merged
#: stream; together they are what ``core.replay_s`` is attributed to.
_PER_ENTITY_STAGES = (
    "insitu.clean", "insitu.area_events", "synopses.process",
    "linkdiscovery.region", "linkdiscovery.port", "streams.broker_publish",
)
_GLOBAL_STAGES = ("linkdiscovery.proximity", "cep.run", "va.dashboard_ingest")
_POOL_STAGES = ("streams.workers_pickle", "streams.merge", "obs.fold", "streams.broker_publish")


def replay_twin(twin, polls, capture: bool) -> list[tuple[list, list[dict]]]:
    """Replay the polls through the in-process ``worker_pool=False`` twin.

    With ``capture``, keep per poll what would have crossed the process
    boundary: the routed request frames and, per shard, a reply shaped
    like the worker's (cumulative report, that poll's new topic records,
    wall, delta harvest).
    """
    consumers = {
        (i, t): shard.broker.consumer(t, "bench-twin")
        for i, shard in enumerate(twin.shards) for t in checks.TOPICS
    } if capture else {}
    previous: list[Any] = [None] * twin.n_shards
    out = []
    for poll in polls:
        twin.run(poll)
        if not capture:
            continue
        routed: list[list] = [[] for _ in range(twin.n_shards)]
        for fix in poll:
            routed[twin.shard_for(fix.entity_id)].append(fix)
        replies = []
        for i, shard in enumerate(twin.shards):
            wall_s = twin.shard_walls()[i]
            current = harvest_obs(
                i, shard.metrics, shard.events, shard.tracer,
                wall_seconds=wall_s, setup_seconds=twin.shard_setups()[i],
            )
            replies.append({
                "report": shard.report,
                "topics": {t: checks.drain(consumers[i, t]) for t in checks.TOPICS},
                "wall_s": wall_s,
                "harvest": current.delta(previous[i]),
            })
            previous[i] = current
        out.append((routed, replies))
    return out


def check_twin(workload: Workload, inputs: Inputs, tally: checks.Tally, sig0: dict, capture: bool = False):
    """Pooled topics must equal an in-process twin's, run once, untimed."""
    twin, _ = build_system(workload, inputs.cep_symbols, in_process=True)
    twin_polls = replay_twin(twin, inputs.polls, capture)
    checks.check_same(tally, "pooled topics = in-process twin", checks.topic_signature(twin.broker), sig0["topics"])
    return twin_polls


class _StageRun:
    """Times stage units of one stage-replay repetition and records their spans."""

    def __init__(self, spans: Spans, rep: int):
        self.units: dict[estimator.Unit, float] = {}
        self.counts: dict[str, float] = {}
        self.spans = spans
        self.rep = rep
        self.root = spans.open("stages.rep", None, rep=rep)

    def timed(self, stage: str, index: int, fn, id_name: str = "poll"):
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        self.units[(stage, index)] = t1 - t0
        self.spans.add(stage, t0, t1, self.root, rep=self.rep, **{id_name: index})
        return result

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def stage_replay(
    workload: Workload, inputs: Inputs, capture: dict[str, list[list]], twin_polls: list,
    spans: Spans, rep: int,
) -> _StageRun:
    """Drive every layer's public API standalone over one repetition's topic records."""
    gc.collect()
    config = SystemConfig(**workload.config)
    layer = RealtimeLayer(config, cep_training_symbols=inputs.cep_symbols)
    broker = Broker()
    topics = {t: broker.create_topic(t, partitions=2) for t in checks.TOPICS}
    batch = BatchLayer(config, broker, 0.0, T_EXTENT_S)   # only its graph and store are driven
    consumers = {t: broker.consumer(t, "bench-stage") for t in checks.TOPICS}
    fold_registry, fold_events, fold_tracer = MetricsRegistry(), EventLog(), Tracer()
    run = _StageRun(spans, rep)
    pending_points: list = []
    n_ingests = 0
    last = len(inputs.polls) - 1
    for j in range(len(inputs.polls)):
        raw = [r.value for r in capture[TOPIC_RAW][j]]
        clean = [r.value for r in capture[TOPIC_CLEAN][j]]
        points = [r.value for r in capture[TOPIC_SYNOPSES][j]]
        fixes_of_points = [cp.fix for cp in points]

        # insitu: the layer restarts clean_stream on every run() call.
        cleaned = run.timed("insitu.clean", j, lambda: list(
            clean_stream(raw, config=config.quality, report=QualityReport())))
        run.count("insitu.clean_in", len(raw))
        run.count("insitu.clean_out", len(cleaned))
        run.count("insitu.area_events_out", run.timed(
            "insitu.area_events", j, lambda: sum(len(layer.area_detector.process(f)) for f in clean)))

        # synopses: flushed at the poll boundary, as run() does.
        def synopses():
            n = sum(len(layer.synopses.process(f)) for f in clean)
            return n, len(layer.synopses.flush())
        n_points, n_end = run.timed("synopses.process", j, synopses)
        run.count("synopses.points_out", n_points + n_end)
        run.count("synopses.end_points", n_end)

        # link discovery over the critical points.
        run.count("linkdiscovery.links_out", run.timed(
            "linkdiscovery.region", j, lambda: sum(len(layer.region_links.links_for(f)[0]) for f in fixes_of_points)))
        run.count("linkdiscovery.links_out", run.timed(
            "linkdiscovery.port", j, lambda: sum(len(layer.port_links.links_for(f)[0]) for f in fixes_of_points)))
        run.count("linkdiscovery.links_out", run.timed(
            "linkdiscovery.proximity", j, lambda: sum(len(layer.proximity.process(f)) for f in fixes_of_points)))

        # cep: one engine run per poll over that poll's turn events.
        if layer.cep is not None:
            def cep():
                events = list(turn_event_stream(points))
                result = layer.cep.run(events) if events else None
                return len(events), (len(result.detections) + len(result.forecasts)) if result else 0
            n_events, n_outputs = run.timed("cep.run", j, cep)
            run.count("cep.events_in", n_events)
            run.count("cep.outputs", n_outputs)

        # streams: the five topics' records into a fresh broker, and back out.
        run.count("streams.broker_records", run.timed(
            "streams.broker_publish", j, lambda: sum(len(topics[t].publish_many(capture[t][j])) for t in checks.TOPICS)))
        run.timed("streams.broker_poll", j, lambda: [checks.drain(c) for c in consumers.values()])

        # va: dashboard ingest of the clean and synopses streams.
        def dashboard():
            for f in clean:
                layer.dashboard.ingest_fix(f)
            for cp in points:
                layer.dashboard.ingest_critical_point(cp)
        run.timed("va.dashboard_ingest", j, dashboard)

        # streams.workers / obs: what the pooled path ships, merges and folds.
        if twin_polls:
            routed, replies = twin_polls[j]
            def ship():
                frames = [pickle.dumps(("req", ("run", sub))) for sub in routed]
                frames += [pickle.dumps(("ok", reply)) for reply in replies]
                for frame in frames:
                    pickle.loads(frame)   # bytes this process wrote a line above
                return sum(map(len, frames[: len(routed)])), sum(map(len, frames[len(routed):]))
            req_bytes, reply_bytes = run.timed("streams.workers_pickle", j, ship)
            run.count("streams.workers_req_bytes", req_bytes)
            run.count("streams.workers_reply_bytes", reply_bytes)
            run.timed("streams.merge", j, lambda: [
                merge_shard_outputs([reply["topics"][t] for reply in replies]) for t in checks.TOPICS])
            run.timed("obs.fold", j, lambda: fold_harvests(
                fold_registry, [reply["harvest"] for reply in replies], events=fold_events, tracer=fold_tracer))

        # rdf / kgstore: the ingest schedule of the workload, as BatchLayer does it.
        pending_points.extend(points)
        if workload.ingests_after(j, last):
            def rdfize():
                triples = list(synopses_rdfizer(pending_points).triples())
                batch.graph.add_all(triples)
                return len(triples)
            run.count("rdf.triples_out", run.timed("rdf.rdfize", n_ingests, rdfize, "ingest"))
            run.count("kgstore.triples_loaded", run.timed(
                "kgstore.load", n_ingests, lambda: batch.store.load(list(batch.graph)).triples, "ingest"))
            pending_points = []
            n_ingests += 1
    for q, (box, t_min, t_max) in enumerate(inputs.queries):
        run.count("kgstore.rows_out", run.timed(
            "kgstore.execute", q, lambda: len(batch.nodes_in_range(box, t_min, t_max)), "query"))
    run.timed("va.render_frame", 0, layer.dashboard.render_frame, "frame")
    run.counts["kgstore.triples"] = len(batch.graph)
    counters = layer.metrics.counters("linkdiscovery.region.")
    run.counts["linkdiscovery.mask_pruned_share"] = counters.get(
        "linkdiscovery.region.mask_pruned", 0) / max(1, counters.get("linkdiscovery.region.entities", 0))
    spans.close(run.root)
    return run


def per_layer_metrics(
    workload: Workload, inputs: Inputs, untraced: list[Rep], traced: list[Rep], stage_runs: list[_StageRun],
) -> dict[str, float]:
    """The per-layer table: unit-floor seconds per repetition, counts and ratios."""
    floors = estimator.unit_floors([run.units for run in stage_runs])
    counts = stage_runs[0].counts
    e2e_table = [rep.units for rep in untraced]
    e2e = estimator.unit_floors(e2e_table)
    traced_floors = estimator.unit_floors([rep.units for rep in traced])
    replay_s = estimator.total(e2e, "poll")

    def seconds(stage: str) -> float:
        return estimator.total(floors, stage)

    balance = min(rep.shard_balance for rep in untraced)
    if workload.pooled:
        # A poll waits for the slower of the workers, then the parent's
        # ship / merge / fold / global stages run serially on top.
        attributed = sum(map(seconds, _PER_ENTITY_STAGES)) / max(balance, 1.0)
        attributed += sum(map(seconds, _GLOBAL_STAGES + _POOL_STAGES))
    else:
        attributed = sum(map(seconds, _PER_ENTITY_STAGES + _GLOBAL_STAGES))
    values = {
        "synopses.end_point_share": counts["synopses.end_points"] / max(1, counts["synopses.points_out"]),
        "streams.workers_busy_s": min(rep.shard_busy_s for rep in untraced),
        "streams.workers_parent_wait_s": estimator.total(e2e, "parent_wait"),
        "streams.shard_balance": balance,
        "obs.snapshot_s": estimator.total(traced_floors, "snapshot"),
        "kgstore.reload_ratio": counts["kgstore.triples_loaded"] / max(1, counts["kgstore.triples"]),
        "core.replay_s": replay_s,
        "core.poll_p90_ms": estimator.quantile(estimator.of_kind(e2e, "poll"), 0.9) * 1e3,
        "core.unattributed_share": 1.0 - attributed / replay_s,
        "host.rep_median_over_floor": estimator.rep_median_over_floor(e2e_table),
        "host.cpu_s_per_mfix": min(rep.cpu_s for rep in untraced) / (inputs.n_fixes / 1e6),
        "host.spin_ms": min(rep.spin_s for rep in untraced) * 1e3,
        "trace.overhead_share": estimator.total(traced_floors, "poll") / replay_s - 1.0,
    }
    # Every other `<stage>_s` is that stage's floor seconds, every other name a stage count.
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = seconds(name[:-2]) if name.endswith("_s") else float(counts.get(name, 0))
    return {name: values[name] for name, _, _ in PER_LAYER}


def traced_run(workload: Workload, inputs: Inputs, tally: checks.Tally, reps: int) -> dict:
    """Untraced and traced repetitions in alternation, then the stage replay."""
    spans = Spans()
    untraced, traced = [], []
    for r in range(reps):
        untraced.append(run_repetition(workload, inputs, tally, r))
        traced.append(run_repetition(workload, inputs, tally, r, spans=spans, capture=True))
    sig0 = untraced[0].signature
    for r, rep in enumerate(untraced[1:] + traced, start=1):
        checks.check_same(tally, f"signature of repetition {r} = repetition 0", rep.signature, sig0)
    twin_polls = check_twin(workload, inputs, tally, sig0, capture=True) if workload.pooled else []
    capture = traced[0].capture
    # The captured records and twin replies are stage-replay input now:
    # keep collections inside timed stage units from re-traversing them.
    gc.collect()
    gc.freeze()
    stage_runs = [stage_replay(workload, inputs, capture, twin_polls, spans, r) for r in range(reps)]
    counts = stage_runs[0].counts
    for r, run in enumerate(stage_runs[1:], start=1):
        checks.check_same(tally, f"stage counts of repetition {r} = repetition 0", run.counts, counts)
    # The standalone stages must reproduce what the system published.
    topics = sig0["topics"]
    checks.check_same(tally, "stage clean_out = clean topic", counts["insitu.clean_out"], topics[TOPIC_CLEAN]["count"])
    checks.check_same(
        tally, "stage points_out = synopses topic", counts["synopses.points_out"], topics[TOPIC_SYNOPSES]["count"])
    checks.check_same(tally, "stage triples = batch triples", counts["kgstore.triples"], sig0["batch"]["triples"])
    values = per_layer_metrics(workload, inputs, untraced, traced, stage_runs)
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in values.items():
        print(f"# {name:34s} {value:14.6f} {units[name]}")
    return {
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        "signature": sig0,
        "input_digest": inputs.digest,
        "spans": spans.spans,
    }
