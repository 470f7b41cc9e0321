"""CLI: ``python -m tools.reprolint [paths...]``.

Exit status: 0 clean, 1 findings (or baseline violations), 2 usage/IO
error — so the CI lint job and the tier-1 self-check can gate on it
directly.

``--update-baseline`` rewrites the ``--baseline`` file to exactly the
current findings and exits 0 (the ratchet: review what it adds, celebrate
what it drops).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from tools.reprolint.core import (
    all_rules,
    findings_to_json,
    lint_paths,
)
from tools.reprolint.output import (
    compare_to_baseline,
    findings_to_sarif,
    load_baseline,
    render_baseline,
)

DEFAULT_PATHS = ["src", "tools", "examples", "benchmarks"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Domain-specific static analysis for the Dragonfly repro "
        "(determinism, hash stability, unit dataflow, hot-path discipline, "
        "exception contracts).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json/sarif schemas in docs/static-analysis.md)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes or prefixes to report (e.g. REP1,REP301)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="compare against a committed baseline: only findings not in it "
        "(and stale entries no longer firing) fail the run",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file to the current findings and exit 0",
    )
    parser.add_argument(
        "--report-unused-disables",
        action="store_true",
        help="also report 'reprolint: disable' comments whose codes no "
        "longer fire on their target line (REP002)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text + ("" if text.endswith("\n") else "\n"), encoding="utf-8")
    else:
        print(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for code, description in sorted(all_rules().items()):
            print(f"{code}  {description}")
        return 0
    if args.update_baseline and not args.baseline:
        print("reprolint: --update-baseline requires --baseline", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    try:
        findings = lint_paths(
            args.paths,
            select=select,
            report_unused_disables=args.report_unused_disables,
        )
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        Path(args.baseline).write_text(render_baseline(findings), encoding="utf-8")
        print(f"reprolint: wrote {args.baseline} ({len(findings)} finding(s))")
        return 0

    comparison = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return 2
        comparison = compare_to_baseline(findings, baseline)
        reported = comparison.new
    else:
        reported = findings

    if args.format == "json":
        _emit(findings_to_json(reported), args.output)
    elif args.format == "sarif":
        _emit(json.dumps(findings_to_sarif(reported), indent=2), args.output)
    else:
        lines = [finding.render() for finding in reported]
        if lines:
            _emit("\n".join(lines), args.output)
        elif args.output:
            _emit("", args.output)
        if reported:
            print(f"reprolint: {len(reported)} finding(s)", file=sys.stderr)

    if comparison is not None:
        if comparison.matched:
            print(
                f"reprolint: {len(comparison.matched)} baselined finding(s) "
                "suppressed by the baseline",
                file=sys.stderr,
            )
        for path, code, message in comparison.stale:
            print(
                f"reprolint: stale baseline entry {path}: {code} {message!r} "
                "no longer fires",
                file=sys.stderr,
            )
        if comparison.stale:
            print(
                "reprolint: run --update-baseline to shrink the baseline",
                file=sys.stderr,
            )
        return 0 if comparison.clean else 1
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
