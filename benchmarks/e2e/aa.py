"""A/A tool: does the benchmark repeat within its own bounds on this host?

    python3 benchmarks/e2e/aa.py              # every workload twice, same seed
    python3 benchmarks/e2e/aa.py --seeds 10   # plus the quartile spread over ten seeds

Runs the command of BENCHMARK.json exactly as the driver does. The A/A
pass runs the workloads in order and then in reverse (so slow drift of
the host does not always hit the same workload's second run) and fails
if any end-to-end metric of the second run is worse than the first by
more than its bound. ``--seeds N`` adds N runs per workload on seeds
1..N and reports, per metric, the distance between the first and third
quartile as a share of the median; it fails above the bound and flags
anything above a third of it. The timing bounds are twice the widest
spread the host's minute-scale drift has caused (README, "What floors
cannot remove"); a metric that no longer meets its bound needs a
steadier run design, not another statistic.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run; returns {metric: value} plus the disturbance ratio."""
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    detail = json.loads((HERE / "out" / f"result_{workload}.json").read_text())
    values["host.rep_median_over_floor"] = detail["diagnostics"]["host.rep_median_over_floor"]
    return values


def worsening(metric: dict, first: float, second: float) -> float:
    """By what share of ``first`` the second value is worse (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the A/A pair")
    parser.add_argument("--seeds", type=int, default=0, help="also measure the spread over seeds 1..N (N >= 4)")
    parser.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    failures = 0

    first = {name: run_once(spec, name, args.seed) for name in names}
    second = {name: run_once(spec, name, args.seed) for name in reversed(names)}
    print(f"A/A, seed {args.seed}: second run against first (positive = worse)")
    print(f"{'workload':10s} {'metric':18s} {'first':>14s} {'second':>14s} {'worse by':>9s} {'bound':>6s}")
    for name in names:
        for metric in spec["end_to_end"]:
            a, b = first[name][metric["name"]], second[name][metric["name"]]
            worse = worsening(metric, a, b)
            verdict = "" if abs(worse) <= metric["bound"] else "  FAIL"
            failures += bool(verdict)
            print(f"{name:10s} {metric['name']:18s} {a:14.4f} {b:14.4f} {worse:+9.2%} {metric['bound']:6.0%}{verdict}")
        print(f"{name:10s} host.rep_median_over_floor {first[name]['host.rep_median_over_floor']:.3f} / "
              f"{second[name]['host.rep_median_over_floor']:.3f}")

    if args.seeds:
        print(f"\nquartile spread over seeds 1..{args.seeds}: (q3 - q1) / median")
        print(f"{'workload':10s} {'metric':18s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        for name in names:
            runs = [run_once(spec, name, seed) for seed in range(1, args.seeds + 1)]
            for metric in spec["end_to_end"]:
                values = [run[metric["name"]] for run in runs]
                spread = quartile_spread(values)
                verdict = ""
                if metric["name"] != "setup_s" and spread > metric["bound"]:
                    verdict = "  FAIL"
                    failures += 1
                elif spread > metric["bound"] / 3:
                    verdict = "  above a third of the bound"
                print(f"{name:10s} {metric['name']:18s} {statistics.median(values):14.4f} "
                      f"{spread:8.2%} {metric['bound']:6.0%}{verdict}")
    print("FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
