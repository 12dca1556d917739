"""Self-tests of the end-to-end benchmark (run by path; not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import checks  # noqa: E402
import estimator  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- estimator ---------------------------------------------------------------


def _synthetic_table(reps: int = 6) -> list[dict]:
    """Identical repetitions: 1 setup, 8 polls, 3 ingests, 5 queries."""
    row = {("setup", 0): 0.1}
    row.update({("poll", j): 0.050 + 0.001 * j for j in range(8)})
    row.update({("ingest", k): 0.2 + 0.1 * k for k in range(3)})
    row.update({("query", q): 0.002 + 0.0005 * q for q in range(5)})
    return [dict(row) for _ in range(reps)]


def _metrics(table) -> dict[str, float]:
    return estimator.end_to_end_metrics(estimator.unit_floors(table), n_fixes=16_384, peak_rss_mb=80.0)


def test_a_burst_in_any_one_repetition_moves_no_metric():
    quiet = _metrics(_synthetic_table())
    for r in range(6):
        table = _synthetic_table()
        table[r] = {unit: 3.0 * seconds for unit, seconds in table[r].items()}
        assert _metrics(table) == quiet
    # ... and neither do bursts that hit a different repetition in every unit.
    table = _synthetic_table()
    for i, unit in enumerate(table[0]):
        table[i % 6][unit] *= 10.0
    assert _metrics(table) == quiet


def test_a_slowdown_in_every_repetition_shows_in_full():
    quiet = _metrics(_synthetic_table())
    slow = _metrics([{unit: 1.2 * seconds for unit, seconds in row.items()} for row in _synthetic_table()])
    assert slow["fixes_per_s"] == pytest.approx(quiet["fixes_per_s"] / 1.2)
    for name in ("poll_p50_ms", "kg_ingest_s", "kg_query_p50_ms", "setup_s"):
        assert slow[name] == pytest.approx(quiet[name] * 1.2)
    assert slow["peak_rss_mb"] == quiet["peak_rss_mb"]


def test_floors_use_the_extra_setup_samples_and_reject_ragged_tables():
    table = _synthetic_table()
    floors = estimator.unit_floors(table, extra={("setup", 0): [0.3, 0.07, 0.2]})
    assert floors[("setup", 0)] == 0.07
    del table[2][("poll", 3)]
    with pytest.raises(ValueError):
        estimator.unit_floors(table)


def test_rep_median_over_floor_reports_the_disturbance():
    table = _synthetic_table()
    assert estimator.rep_median_over_floor(table) == pytest.approx(1.0)
    for row in table[:4]:
        for j in range(8):
            row[("poll", j)] *= 1.5
    assert estimator.rep_median_over_floor(table) == pytest.approx(1.5)


# -- failure accounting -------------------------------------------------------


def test_tally_counts_failed_operations_and_checks():
    tally = checks.Tally()
    with tally.op("poll"):
        pass
    with pytest.raises(ZeroDivisionError), tally.op("poll"):
        1 / 0
    checks.check_same(tally, "same", {"a": 1}, {"a": 1})
    checks.check_same(tally, "different", {"a": 1, "b": 2}, {"a": 1, "b": 3})
    assert (tally.n_attempted, tally.n_failed) == (4, 2)
    assert tally.failed == {"poll": 1, "check": 1}
    assert "[b] 2 != 3" in tally.errors[1]


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.make_fixes(workload, seed=3, scale=0.05)
    again = workloads.make_fixes(workload, seed=3, scale=0.05)
    other = workloads.make_fixes(workload, seed=4, scale=0.05)
    assert len(first) == len(other) == max(1, round(workload.n_fixes * 0.05))
    assert workloads.fix_digest(first) == workloads.fix_digest(again)
    assert workloads.fix_digest(first) != workloads.fix_digest(other)
    assert all(a.t <= b.t for a, b in zip(first, first[1:]))


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_code_and_the_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "PYTHONHASHSEED=0" in SPEC["command"]
    assert SPEC["run_seconds"] == workloads.DESIGN_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(stages.PER_LAYER)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    assert all(w.reps >= 14 for w in workloads.WORKLOADS.values())


# -- the program, end to end ----------------------------------------------------


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_smoke_run_of_every_workload_with_and_without_trace():
    started = time.perf_counter()
    for name in workloads.WORKLOADS:
        for trace, table in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            done = _run(["--workload", name, "--seed", "5", "--scale", "0.05", "--reps", "2", "--trace", str(trace)])
            assert done.returncode == 0, done.stdout + done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
        trace_file = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
        assert {"name", "start", "end", "parent", "rep"} <= set(trace_file["spans"][0])
        assert {"e2e.poll", "insitu.clean", "kgstore.load"} <= {s["name"] for s in trace_file["spans"]}
        assert set(trace_file["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert {"nproc", "python", "platform", "git_sha", "seed", "reps", "PYTHONHASHSEED"} <= set(trace_file["provenance"])
        workers = [v["value"] for n, v in trace_file["metrics"].items() if n.startswith("streams.workers_")]
        assert all(workers) if name == "ais_pool" else not any(workers)
    assert time.perf_counter() - started < 20.0


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "ais_bulk", "--seed", "1", "--seconds", "30", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
