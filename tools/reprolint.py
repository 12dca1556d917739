#!/usr/bin/env python3
"""Project-aware static analysis driver (the `repro.analysis` CLI).

Runs the registered checkers over the repository and reports findings,
honouring inline ``# reprolint: disable=<check> — reason`` pragmas and
the committed baseline (``tools/reprolint_baseline.json``).

Exit codes (the CI contract):

* 0 — clean, or every finding is suppressed/baselined
* 1 — at least one new error finding
* 2 — the analysis itself failed (bad config, unknown checker)

Usage::

    python tools/reprolint.py                      # text report
    python tools/reprolint.py --format json        # CI artifact to stdout
    python tools/reprolint.py --format json --output reprolint_report.json
    python tools/reprolint.py --verbose --json-output report.json  # one run, both
    python tools/reprolint.py --checks layering,hygiene
    python tools/reprolint.py --checks determinism,metric-contract
    python tools/reprolint.py --update-baseline    # grandfather current findings
    python tools/reprolint.py --list-checks
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import all_checkers, render_json, render_text, run_analysis  # noqa: E402
from repro.analysis.config import ConfigError  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="repository root to analyse (default: this repo)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the report to this file instead of stdout "
             "(a one-line summary still goes to stdout)",
    )
    parser.add_argument(
        "--json-output", type=Path, default=None,
        help="additionally write a JSON report to this file — one analysis "
             "run produces both the human text report and the CI artifact",
    )
    parser.add_argument(
        "--checks", default="",
        help="comma-separated checker names to run (default: all)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file (default: <root>/tools/reprolint_baseline.json)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-checks", action="store_true",
        help="list registered checkers and exit",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also show pragma-suppressed findings in the text report",
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        for name, cls in all_checkers().items():
            print(f"{name:16} {cls.description}")
        return 0

    checks = [c.strip() for c in args.checks.split(",") if c.strip()] or None
    try:
        result = run_analysis(
            args.root,
            checks=checks,
            baseline_path=args.baseline,
            update_baseline=args.update_baseline,
        )
    except (ConfigError, KeyError, OSError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    if args.json_output is not None:
        args.json_output.write_text(render_json(result), encoding="utf-8")

    report = render_json(result) if args.format == "json" else render_text(result, verbose=args.verbose)
    if args.output is not None:
        args.output.write_text(report, encoding="utf-8")
        summary = result.summary()
        print(
            f"reprolint: wrote {args.format} report to {args.output} "
            f"({summary['total']} findings, {summary['new']} new)"
        )
    else:
        print(report)

    if args.update_baseline:
        print("reprolint: baseline updated")
        return 0
    return result.exit_code()


if __name__ == "__main__":
    sys.exit(main())
