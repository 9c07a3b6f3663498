"""``python -m repro.lint`` — command line front end.

Exit status: 0 when no error-severity findings survive suppression
(advice never fails a run), 1 when violations remain, 2 on usage
errors, 3 on an internal linter crash (so CI can distinguish "lint
found problems" from "lint itself broke").  ``--format json`` emits
the stable ``reprolint/2`` schema::

    {
      "schema": "reprolint/2",
      "files": 123,
      "findings": [
        {"file": "src/x.py", "line": 10, "col": 5,
         "rule": "RL002", "severity": "error", "message": "...",
         "chain": ["repro.core.multireplay.MultiReplayEngine.run",
                   "repro.core.helpers._jitter"]}
      ],
      "counts": {"error": 1, "advice": 0, "suppressed": 2},
      "exit": 1
    }

``chain`` appears only on interprocedural findings (RL011) and lists
the call path from the replay entry point to the tainted function.
Findings are sorted by (file, line, col, rule) so reports diff cleanly
across runs; ``file`` is relative to the common ancestor of the path
arguments, with ``/`` separators on every platform.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, List, Optional, Sequence

from repro.lint.engine import SEVERITY_ADVICE, LintReport, lint_paths
from repro.lint.rules import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "reprolint: AST-based determinism & trace-safety linter "
            "for this repository"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src tests benchmarks examples)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--no-advice",
        action="store_true",
        help="omit advice-level findings from the report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule reference table and exit",
    )
    return parser


def _list_rules(out: IO[str]) -> None:
    out.write("reprolint rules (see docs/lint_rules.md for examples):\n\n")
    for rule in all_rules():
        out.write(f"{rule.id}  {rule.name}  [{rule.severity}]\n")
        out.write(f"    {rule.rationale}\n")


def _render_text(report: LintReport, out: IO[str], show_advice: bool) -> None:
    for finding in report.findings:
        if finding.severity == SEVERITY_ADVICE and not show_advice:
            continue
        out.write(
            f"{finding.location()}: {finding.rule} "
            f"[{finding.severity}] {finding.message}\n"
        )
    advice = 0 if not show_advice else len(report.advice)
    out.write(
        f"reprolint: {report.files} file(s), {len(report.errors)} error(s), "
        f"{advice} advice, {report.suppressed} suppressed\n"
    )


def _render_json(report: LintReport, out: IO[str], show_advice: bool) -> None:
    data = report.to_dict()
    if not show_advice:
        data["findings"] = [
            f for f in data["findings"] if f["severity"] != SEVERITY_ADVICE
        ]
        data["counts"]["advice"] = 0
    json.dump(data, out, indent=2, sort_keys=True)
    out.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules(sys.stdout)
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src tests)")

    select: Optional[List[str]] = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        report = lint_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # reprolint: disable=RL007 -- deliberate last-resort handler: an internal linter crash must exit 3 (distinct from findings=1 and usage=2) so CI can tell "lint failed" from "lint found problems"
        print(
            f"reprolint: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3

    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            _render(report, out, args)
    else:
        _render(report, sys.stdout, args)
    return report.exit_code


def _render(report: LintReport, out: IO[str], args: argparse.Namespace) -> None:
    if args.format == "json":
        _render_json(report, out, show_advice=not args.no_advice)
    else:
        _render_text(report, out, show_advice=not args.no_advice)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
