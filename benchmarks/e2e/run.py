"""Driver of the Figure-2 end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload ais_bulk --seed 1 --seconds 30 --trace 0

One run = one workload, one seed: generate the input once (untimed), then
R identical repetitions, each building a fresh system and replaying the
stream through the public entry points from one closed-loop client. Every
timing metric is computed from per-unit floors across the repetitions
(``estimator.py``). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (``stages.py``); the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def _preflight() -> None:
    """Refuse to run without the program; re-exec under PYTHONHASHSEED=0 if unset.

    String hashing feeds set/dict iteration order inside the program, so
    runs are only comparable under one hash seed, and it has to be set
    before the interpreter starts.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})


if __name__ == "__main__":
    _preflight()
# The program under test (src/) and the benchmark's own modules.
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import checks  # noqa: E402
import estimator  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402
from harness import measure_setup, run_repetition  # noqa: E402
from repro.core import SystemConfig  # noqa: E402

#: name, unit, better, bound — BENCHMARK.json's end_to_end block is this table.
END_TO_END = (
    ("fixes_per_s", "1/s", "higher", 0.20),
    ("poll_p50_ms", "ms", "lower", 0.20),
    ("kg_ingest_s", "s", "lower", 0.20),
    ("kg_query_p50_ms", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)


def provenance(args, workload: workloads.Workload, reps: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "reps": reps,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", ""),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="offsets the simulator/registry seeds")
    parser.add_argument(
        "--seconds", type=float, default=workloads.DESIGN_SECONDS,
        help="run length; scales the workload's fixed repetition count",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies fleet and stream size")
    parser.add_argument("--reps", type=int, default=None, help="override R (smoke runs)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or (args.reps is not None and args.reps < 2):
        parser.error("--seconds and --scale must be positive, --reps at least 2")
    return args


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    # R is fixed per workload (the same on every commit), not adapted to
    # how fast the code is: a faster commit finishes early, it does not
    # get more repetitions and a lower floor.
    reps = args.reps or max(2, round(workload.reps * args.seconds / workloads.DESIGN_SECONDS))
    share = reps / workload.reps
    tally = checks.Tally()
    inputs = workloads.make_inputs(workload, args.seed, SystemConfig().bbox, args.scale)
    gc.collect()
    gc.freeze()   # the input is never re-traversed by a collection inside a timed region
    prov = provenance(args, workload, reps)
    print(f"# {workload.name}: {inputs.n_fixes} fixes in {len(inputs.polls)} polls of {workload.poll}, "
          f"R={reps}, seed={args.seed}, input digest {inputs.digest}")
    out_path = OUT_DIR / f"{'trace' if args.trace else 'result'}_{workload.name}.json"
    try:
        if args.trace:
            prov["reps"] = max(2, round(workloads.TRACE_REPS * share))
            result = stages.traced_run(workload, inputs, tally, prov["reps"])
        else:
            result = untraced_run(workload, inputs, tally, reps, max(2, round(workloads.SETUP_EXTRAS * share)))
    except Exception:  # reprolint: disable=hygiene — the run boundary: whatever aborted it is reported as a failed run
        # A failed operation was already tallied where it happened.
        traceback.print_exc()
        result = {"metrics": {}}
    result["provenance"] = prov
    result["operations"] = {"attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors}
    OUT_DIR.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1, default=str))
    for kind, n in sorted(tally.attempted.items()):
        print(f"# {kind}: {n} attempted, {tally.failed.get(kind, 0)} failed")
    for error in tally.errors:
        print(f"# FAILED {error}")
    print(f"# run took {perf_counter() - started:.1f} s, details in {out_path.relative_to(ROOT)}")
    correct = tally.n_failed == 0 and bool(result["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.n_attempted),
        "failed": tally.n_failed,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def untraced_run(workload, inputs, tally, reps: int, setup_extras: int) -> dict:
    """The end-to-end run: tracing off, R repetitions, metrics from unit floors."""
    setup_samples = measure_setup(workload, inputs, setup_extras)
    runs = [run_repetition(workload, inputs, tally, r) for r in range(reps)]
    sig0 = runs[0].signature
    for r, rep in enumerate(runs[1:], start=1):
        checks.check_same(tally, f"signature of repetition {r} = repetition 0", rep.signature, sig0)
    if workload.pooled:
        stages.check_twin(workload, inputs, tally, sig0)
    table = [rep.units for rep in runs]
    floors = estimator.unit_floors(table, extra={("setup", 0): setup_samples})
    # ru_maxrss is this process's high-water mark over the whole run, in KB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + max(
        rep.worker_rss_mb for rep in runs
    )
    values = estimator.end_to_end_metrics(floors, inputs.n_fixes, peak_rss_mb)
    diagnostics = {
        "host.rep_median_over_floor": estimator.rep_median_over_floor(table),
        "host.cpu_s_per_mfix": min(rep.cpu_s for rep in runs) / (inputs.n_fixes / 1e6),
        "host.spin_ms": min(rep.spin_s for rep in runs) * 1e3,
        "polls": len(inputs.polls),
        "ingests": len(estimator.of_kind(floors, "ingest")),
        "queries": len(estimator.of_kind(floors, "query")),
        "setup_samples": reps + setup_extras,
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    for name, value in values.items():
        print(f"# {name:16s} {value:12.4f} {units[name]}")
    print(f"# poll_p50_ms over {diagnostics['polls']} polls, kg_query_p50_ms over {diagnostics['queries']} queries, "
          f"setup_s over {diagnostics['setup_samples']} constructions; "
          f"host.rep_median_over_floor {diagnostics['host.rep_median_over_floor']:.3f}")
    print(f"# signature: {json.dumps(sig0, sort_keys=True)}")
    return {
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        "diagnostics": diagnostics,
        "signature": sig0,
        "input_digest": inputs.digest,
    }


if __name__ == "__main__":
    sys.exit(main())
