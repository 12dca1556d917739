"""Quickstart: the integrated datAcron pipeline in ~40 lines.

Simulates a small vessel fleet, pushes it through the full real-time
layer (cleaning -> in-situ -> synopses -> link discovery -> CEP) and
the batch layer (RDF lifting -> spatio-temporal knowledge-graph store),
then asks the store a star query, prints the live dashboard and the
observability view (metrics snapshot, health states, recent events,
and where each call's time went).

Run:  python examples/quickstart.py
"""

from repro.obs import format_snapshot

from repro.cep import symbol_sequence, turn_event_stream
from repro.core import DatacronSystem, SystemConfig
from repro.datasources import AISConfig, AISSimulator, fishing_vessel_stream
from repro.synopses import SynopsesConfig, SynopsesGenerator


def main() -> None:
    # 1. Configure the system (small region/port catalogues for speed).
    config = SystemConfig(n_regions=100, n_ports=40, seed=7, synopses=SynopsesConfig(min_reemit_s=30.0))

    # 2. Train the complex-event forecaster on a fishing vessel's history.
    history = fishing_vessel_stream(seed=9, duration_s=12 * 3600.0, report_period_s=20.0)
    generator = SynopsesGenerator(config.synopses)
    points = list(generator.process_stream(history)) + generator.flush()
    training_symbols = symbol_sequence(turn_event_stream(points))

    # 3. Build the integrated system and feed it two hours of live traffic.
    system = DatacronSystem(config, t_origin=0.0, t_extent_s=4 * 3600.0,
                            cep_training_symbols=training_symbols)
    fleet = AISSimulator(n_vessels=15, seed=5, config=AISConfig(report_period_s=30.0))
    run = system.run(fleet.fixes(0.0, 2 * 3600.0))

    # 4. What the real-time layer did.
    rt = run.realtime
    print(f"raw fixes           : {rt.raw_fixes}")
    print(f"cleaned fixes       : {rt.clean_fixes} ({rt.quality.dropped} dropped)")
    print(f"critical points     : {rt.critical_points} "
          f"(compression {rt.compression_ratio * 100:.1f} %)")
    print(f"links discovered    : {rt.links}")
    print(f"complex events      : {rt.cep_detections} detections, {rt.cep_forecasts} forecasts")

    # 5. Ask the batch layer's knowledge graph a spatio-temporal star query.
    nodes = system.batch.nodes_in_range(config.bbox, 0.0, 3600.0)
    print(f"KG store            : {run.batch.triples} triples; "
          f"{len(nodes)} semantic nodes in the first hour")
    print(f"event-type counts   : {system.batch.event_type_counts()}")

    # 6. The Figure-13 dashboard.
    print()
    print(system.dashboard_frame(t=7200.0))

    # 7. The observability view: every number above again, but from the
    # metrics registry — plus pipeline health and the structured event log.
    metrics = system.system_metrics()
    print()
    print(format_snapshot(metrics, title="system metrics (repro.obs)"))
    health = metrics["health"]
    states = ", ".join(f"{c}={s['state']}" for c, s in health["components"].items())
    print(f"pipeline health     : {health['system']} ({states})")
    events = metrics["events"]
    print(f"structured events   : {events['emitted']} emitted; last:")
    for event in events["recent"][-3:]:
        print(f"  [{event['severity']:<5}] {event['component']}/{event['kind']} {event.get('message', '')}")

    # 8. Where each call's time went: every region's seconds and share of
    # its root's wall, from the same registry.
    for root, call in metrics["operators"].items():
        print(f"{root + ' wall':<20}: {call['seconds'] * 1e3:8.2f} ms")
        for region, row in call["regions"].items():
            print(f"  {region:<18}: {row['seconds'] * 1e3:8.2f} ms {row['share']:6.1%}")


if __name__ == "__main__":
    main()
