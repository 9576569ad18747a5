"""``python -m repro.analysis`` — the determinism-contract gate.

Exit codes: ``0`` no findings, ``1`` findings, ``2`` bad arguments
(missing targets, an unwritable ``--output``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import AnalysisResult, analyze_paths
from repro.analysis.registry import BUILTIN_DIAGNOSTICS, RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analyzer enforcing the determinism contract: DET "
            "(nondeterminism sources), SCOPE (timing fields in "
            "deterministic payloads), PAR (fork/pipe safety), MSG "
            "(metered message plane)."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="files or directories to analyze",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the report to this file (any format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule id with its summary and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule_id in sorted({*RULES, *BUILTIN_DIAGNOSTICS}):
        summary = (
            RULES[rule_id].summary
            if rule_id in RULES
            else BUILTIN_DIAGNOSTICS[rule_id]
        )
        lines.append(f"{rule_id}  {summary}")
    return "\n".join(lines)


def _render_text(result: AnalysisResult) -> str:
    lines = [finding.render() for finding in result.findings]
    lines.append(
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressions)} suppressed "
        f"in {len(result.files)} file(s)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.targets:
        parser.error("at least one file or directory target is required")

    try:
        result = analyze_paths(args.targets)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        rendered = json.dumps(result.to_json(), indent=2, sort_keys=True)
    else:
        rendered = _render_text(result)
    print(rendered)
    if args.output:
        try:
            Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2

    return 1 if result.findings else 0
