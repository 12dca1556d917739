"""Tests for the `repro.analysis` static-analysis framework.

Each checker gets a fixture project proving (a) it fires on a planted
violation and (b) an inline ``# reprolint: disable=`` pragma or a
baseline entry suppresses it. The runner-level tests cover the baseline
round-trip, the JSON report schema and the exit-code contract — the
things ``tools/reprolint.py`` promises CI.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    all_checkers,
    render_json,
    render_text,
    run_analysis,
)
from repro.analysis.checkers.metrics_contract import could_match
from repro.analysis.config import AnalysisConfig, ConfigError, parse_minimal_toml
from repro.analysis.model import Project, module_imports

REPO_ROOT = Path(__file__).resolve().parents[1]

LAYERING_TOML = """
package = "repro"

[allow]
repro = []
streams = []
obs = []
cep = []

[forbid.streams]
obs = "streams must stay importable without obs"
"""


def write_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise a fixture repo; every src package gets an __init__.py."""
    defaults = {
        "tools/layering.toml": LAYERING_TOML,
        "src/repro/__init__.py": "",
    }
    for relpath, text in {**defaults, **files}.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        if relpath.startswith("src/repro/"):
            for parent in path.parents:
                if parent == tmp_path / "src":
                    break
                init = parent / "__init__.py"
                if parent.name != "src" and not init.exists():
                    init.write_text("")
    return tmp_path


def new_findings_of(result, check: str):
    return [f for f in result.new_findings() if f.check == check]


class TestProjectModel:
    def test_discovers_realms_and_modules(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/broker.py": "x = 1\n",
                "tests/test_x.py": "y = 2\n",
                "benchmarks/bench_y.py": "z = 3\n",
            },
        )
        project = Project.discover(root)
        modules = {f.module for f in project.files}
        assert "repro.streams.broker" in modules
        # tests/ is not a realm: no checker reads it.
        assert {f.realm for f in project.files} == {"src", "benchmarks"}

    def test_relative_import_resolution(self, tmp_path):
        root = write_project(
            tmp_path,
            {"src/repro/streams/broker.py": "from ..obs import metrics\nfrom .record import Record\n"},
        )
        project = Project.discover(root)
        source = project.file("src/repro/streams/broker.py")
        imported = {edge.module for edge in module_imports(source)}
        assert "repro.obs" in imported
        assert "repro.streams.record" in imported

    def test_parse_failure_is_a_finding(self, tmp_path):
        root = write_project(tmp_path, {"src/repro/streams/bad.py": "def broken(:\n"})
        result = run_analysis(root)
        assert any(f.check == "parse" for f in result.new_findings())


class TestMinimalToml:
    def test_parses_the_committed_layering_file(self):
        text = (REPO_ROOT / "tools" / "layering.toml").read_text()
        doc = parse_minimal_toml(text)
        assert doc["package"] == "repro"
        assert "streams" in doc["allow"]
        assert doc["forbid"]["streams"]["obs"]

    def test_rejects_unsupported_syntax(self):
        with pytest.raises(ConfigError):
            parse_minimal_toml("x = 3.14\n")

    def test_declared_cycle_is_a_config_error(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "tools/layering.toml": (
                    'package = "repro"\n[allow]\na = ["b"]\nb = ["a"]\n'
                ),
                "src/repro/a/mod.py": "",
            },
        )
        with pytest.raises(ConfigError, match="cycle"):
            AnalysisConfig.load(root)


class TestLayeringChecker:
    def test_fires_on_forbidden_and_undeclared_imports(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/bad.py": "from ..obs import anything\n",
                "src/repro/cep/bad.py": "from ..streams import anything\n",
            },
        )
        result = run_analysis(root, checks=["layering"])
        messages = [f.message for f in new_findings_of(result, "layering")]
        assert any("forbidden import" in m and "streams must stay importable" in m for m in messages)
        assert any("layering violation: cep imports streams" in m for m in messages)

    def test_type_checking_imports_are_exempt(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/ok.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from ..obs import metrics\n"
                ),
            },
        )
        result = run_analysis(root, checks=["layering"])
        assert new_findings_of(result, "layering") == []

    def test_reports_observed_import_cycle(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                # The declared DAG is acyclic (b -> a is a violation), but
                # the observed edges still form a cycle — reported once at
                # file-level on top of the per-import violation.
                "tools/layering.toml": (
                    'package = "repro"\n[allow]\nrepro = []\na = ["b"]\nb = []\n'
                ),
                "src/repro/a/mod.py": "from ..b import mod\n",
                "src/repro/b/mod.py": "from ..a import mod\n",
            },
        )
        result = run_analysis(root, checks=["layering"])
        assert any("import cycle" in f.message for f in new_findings_of(result, "layering"))

    def test_pragma_suppresses(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/bad.py": (
                    "from ..obs import anything  "
                    "# reprolint: disable=layering — fixture exception\n"
                ),
            },
        )
        result = run_analysis(root, checks=["layering"])
        assert new_findings_of(result, "layering") == []
        assert any(r.suppressed for r in result.rows)


class TestDeterminismChecker:
    BAD = (
        "import time\nimport random\n"
        "def stamp():\n    return time.time()\n"
        "def jitter():\n    return random.random()\n"
    )

    def test_fires_in_event_time_packages_only(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/bad.py": self.BAD,
                "src/repro/obs/wallclock.py": self.BAD,  # obs may read wall time
            },
        )
        result = run_analysis(root, checks=["determinism"])
        findings = new_findings_of(result, "determinism")
        assert len(findings) == 2
        assert all(f.path == "src/repro/streams/bad.py" for f in findings)

    def test_flags_unseeded_generators_not_seeded_ones(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/rng.py": (
                    "import random\nimport numpy as np\n"
                    "ok1 = random.Random(42)\n"
                    "ok2 = np.random.default_rng(7)\n"
                    "bad1 = random.Random()\n"
                    "bad2 = np.random.default_rng()\n"
                ),
            },
        )
        result = run_analysis(root, checks=["determinism"])
        lines = sorted(f.line for f in new_findings_of(result, "determinism"))
        assert lines == [5, 6]

    def test_pragma_suppresses(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/cep/bad.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    # reprolint: disable=determinism — wall clock is the point here\n"
                    "    return time.time()\n"
                ),
            },
        )
        result = run_analysis(root, checks=["determinism"])
        assert new_findings_of(result, "determinism") == []


class TestMetricContractChecker:
    def test_grammar_violations(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/emit.py": (
                    "def wire(registry):\n"
                    "    registry.counter('BadName.records')\n"
                    "    registry.gauge('nodots')\n"
                    "    registry.histogram('mystery.latency_s')\n"
                    "    registry.counter('op.clean.records_in')\n"
                ),
            },
        )
        result = run_analysis(root, checks=["metric-contract"])
        messages = [f.message for f in new_findings_of(result, "metric-contract")]
        assert len(messages) == 3
        assert any("'BadName.records'" in m for m in messages)
        assert any("'nodots'" in m for m in messages)
        assert any("unknown namespace root 'mystery'" in m for m in messages)

    def test_dead_health_rule_and_live_rule(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/emit.py": (
                    "def wire(registry, monitor):\n"
                    "    registry.gauge('op.clean.queue_depth')\n"
                    "    monitor.add_rule('streams', 'op.*.queue_depth', 1.0, 2.0)\n"
                    "    monitor.add_rule('streams', 'op.*.no_such_gauge', 1.0, 2.0)\n"
                ),
            },
        )
        result = run_analysis(root, checks=["metric-contract"])
        messages = [f.message for f in new_findings_of(result, "metric-contract")]
        assert len(messages) == 1
        assert "dead health rule" in messages[0] and "no_such_gauge" in messages[0]

    def test_fstring_and_probe_expansion(self, tmp_path):
        """F-string holes become wildcards; loop-bound operator names stay
        concrete (a rule on an operator outside the loop is dead) and an
        ``OperatorProbe`` expands to its whole ``op.<name>.*`` family."""
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/emit.py": (
                    "def wire(registry, monitor, plan):\n"
                    "    registry.gauge(f'kg.cache_rows.{plan}')\n"
                    "    for name in ('clean', 'synopses'):\n"
                    "        OperatorProbe(registry, name)\n"
                    "        registry.gauge(f'op.{name}.queue_depth')\n"
                    "    for probed in ('clean', 'BadOp'):\n"
                    "        OperatorProbe(registry, probed)\n"
                    "    monitor.add_rule('kg', 'kg.cache_rows.pushdown', 1.0, 2.0)\n"
                    "    monitor.add_rule('streams', 'op.synopses.queue_depth', 1.0, 2.0)\n"
                    "    monitor.add_rule('streams', 'op.rdf.queue_depth', 1.0, 2.0)\n"
                ),
            },
        )
        result = run_analysis(root, checks=["metric-contract"])
        messages = [f.message for f in new_findings_of(result, "metric-contract")]
        dead = [m for m in messages if "dead health rule" in m]
        assert len(dead) == 1 and "op.rdf.queue_depth" in dead[0]
        grammar = sorted(m.split("'")[1] for m in messages if "grammar" in m)
        assert grammar == [
            f"op.BadOp.{field}"
            for field in ("batches", "latency_s", "records_in", "records_out")
        ]
        assert len(messages) == 5

    def test_could_match_wildcards_both_sides(self):
        assert could_match("broker.lag.*", "broker.lag.*.*")
        assert could_match("op.clean.records_in", "op.*.records_in")
        assert could_match("realtime.error_rate", "realtime.error_rate")
        assert not could_match("op.clean.latnecy_s", "op.*.latency_s")
        assert not could_match("kg.query_latency", "kg.query_latency_s")

    def test_real_repo_contract_holds(self):
        """The default health rules and every emitted name must stay live."""
        result = run_analysis(REPO_ROOT, checks=["metric-contract"])
        assert new_findings_of(result, "metric-contract") == []


class TestHygieneChecker:
    def test_mutable_default_bare_except_swallow(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/bad.py": (
                    "def collect(out=[]):\n"
                    "    try:\n"
                    "        out.append(1)\n"
                    "    except:\n"
                    "        raise\n"
                    "    try:\n"
                    "        out.append(2)\n"
                    "    except ValueError:\n"
                    "        pass\n"
                    "    return out\n"
                ),
            },
        )
        result = run_analysis(root, checks=["hygiene"])
        messages = [f.message for f in new_findings_of(result, "hygiene")]
        assert len(messages) == 3
        assert any("mutable default" in m for m in messages)
        assert any("bare `except:`" in m for m in messages)
        assert any("swallowed exception" in m for m in messages)

    def test_broad_except_fires_and_pragma_justifies(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/broad.py": (
                    "def fragile():\n"
                    "    try:\n"
                    "        risky()\n"
                    "    except Exception:\n"
                    "        raise\n"
                    "def boundary(conn):\n"
                    "    try:\n"
                    "        risky()\n"
                    "    # reprolint: disable=hygiene — IPC boundary: any failure\n"
                    "    # must serialise into an error frame, not kill the worker.\n"
                    "    except Exception as exc:\n"
                    "        conn.send(repr(exc))\n"
                    "        raise\n"
                ),
            },
        )
        result = run_analysis(root, checks=["hygiene"])
        new = new_findings_of(result, "hygiene")
        assert len(new) == 1
        assert "broad `except" in new[0].message
        assert new[0].line == 4  # the un-pragma'd handler, not the boundary one

    def test_pragma_with_multiline_reason_suppresses(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "src/repro/streams/ok.py": (
                    "def skip():\n"
                    "    try:\n"
                    "        risky()\n"
                    "    except ValueError:\n"
                    "        # reprolint: disable=hygiene — a non-numeric value\n"
                    "        # simply does not anchor; this is the documented skip.\n"
                    "        pass\n"
                ),
            },
        )
        result = run_analysis(root, checks=["hygiene"])
        assert new_findings_of(result, "hygiene") == []
        assert any(r.suppressed for r in result.rows)


class TestBaselineAndReporting:
    def _violating_project(self, tmp_path):
        return write_project(
            tmp_path,
            {"src/repro/streams/bad.py": "def collect(out=[]):\n    return out\n"},
        )

    def test_baseline_round_trip(self, tmp_path):
        root = self._violating_project(tmp_path)
        assert run_analysis(root).exit_code() == 1
        run_analysis(root, update_baseline=True)
        loaded = Baseline.load(root / "tools" / "reprolint_baseline.json")
        assert len(loaded.entries) == 1
        result = run_analysis(root)
        assert result.exit_code() == 0
        assert result.summary()["baselined"] == 1

    def test_baseline_survives_line_drift(self, tmp_path):
        root = self._violating_project(tmp_path)
        run_analysis(root, update_baseline=True)
        bad = root / "src/repro/streams/bad.py"
        bad.write_text("# a new comment shifting every line\n" + bad.read_text())
        result = run_analysis(root)
        assert result.exit_code() == 0, "fingerprints must not bind to line numbers"

    def test_stale_baseline_entries_are_reported(self, tmp_path):
        root = self._violating_project(tmp_path)
        run_analysis(root, update_baseline=True)
        (root / "src/repro/streams/bad.py").write_text("def collect(out=None):\n    return out\n")
        result = run_analysis(root)
        assert result.exit_code() == 0
        assert len(result.stale_baseline) == 1
        assert "stale baseline" in render_text(result)

    def test_json_report_schema(self, tmp_path):
        root = self._violating_project(tmp_path)
        result = run_analysis(root)
        doc = json.loads(render_json(result))
        assert doc["version"] == 1
        assert doc["tool"] == "reprolint"
        assert doc["exit_code"] == 1
        assert set(doc["summary"]) >= {
            "files", "total", "new", "suppressed", "baselined", "new_by_check",
        }
        finding = next(f for f in doc["findings"] if f["check"] == "hygiene")
        assert set(finding) >= {
            "check", "severity", "path", "line", "col", "message",
            "fingerprint", "suppressed", "baselined",
        }
        assert finding["path"] == "src/repro/streams/bad.py"

    def test_checker_registry_has_the_four_checkers(self):
        assert set(all_checkers()) == {"layering", "determinism", "metric-contract", "hygiene"}


class TestCliContract:
    def _run(self, *args, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "reprolint.py"), *args],
            capture_output=True,
            text=True,
            cwd=cwd,
        )

    def test_repo_at_head_is_clean(self):
        proc = self._run()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: OK" in proc.stdout

    def test_violation_makes_exit_nonzero(self, tmp_path):
        root = write_project(
            tmp_path,
            {"src/repro/streams/bad.py": "def collect(out=[]):\n    return out\n"},
        )
        proc = self._run("--root", str(root))
        assert proc.returncode == 1
        assert "mutable default" in proc.stdout

    def test_json_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run("--format", "json", "--output", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(out.read_text())
        assert doc["exit_code"] == 0
        assert doc["summary"]["new"] == 0

    def test_json_output_alongside_text(self, tmp_path):
        # The CI shape: one run, text report to stdout AND the JSON artifact.
        out = tmp_path / "report.json"
        proc = self._run("--verbose", "--json-output", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: OK" in proc.stdout
        doc = json.loads(out.read_text())
        assert doc["tool"] == "reprolint"
        assert doc["exit_code"] == 0

    def test_list_checks(self):
        proc = self._run("--list-checks")
        assert proc.returncode == 0
        listed = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
        assert listed == {"layering", "determinism", "metric-contract", "hygiene"}

    def test_unknown_checker_is_config_error(self):
        proc = self._run("--checks", "no-such-checker")
        assert proc.returncode == 2
