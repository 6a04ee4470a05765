"""Command line: ``python -m repro.analysis [paths] [options]``.

Exit-code contract (relied on by CI and pre-commit):

* ``0`` — no findings (or report-only mode without ``--strict``);
* ``1`` — any finding and ``--strict``; a per-line
  ``# repro: noqa RULE -- why`` is the only way to accept one;
* ``2`` — usage or I/O error (unknown rule id or flag, missing path).

Every run is the two-pass run: the per-file rules, then the
whole-program rules over the assembled project index.  Pass 1 goes
through a content-hash cache (on unless ``--no-cache``; ``--cache-dir``
only relocates it), so a warm run re-parses only files whose bytes
changed (``files_parsed`` in the JSON/text stats is the cache-miss count
CI asserts on).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence, TextIO

from repro.analysis.cache import (
    CACHE_DIR_DEFAULT,
    AnalysisCache,
    analyzer_fingerprint,
)
from repro.analysis.rules import (
    ALL_RULES,
    PROJECT_RULES,
    select_project_rules,
    select_rules,
)
from repro.analysis.run import analyze_project_paths
from repro.analysis.sarif import to_sarif

__all__ = ["main", "build_parser"]

OUTPUT_SCHEMA_VERSION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static determinism & concurrency sanitizer: enforces the "
            "repo's replay invariants (seeded RNG flow, no wall-clock in "
            "the simulator, no float == on sim time, async/lock/wire "
            "hygiene) as AST checks, plus the whole-program pass "
            "(lock-order cycles, seed-taint flow, wire-schema drift)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any finding (CI mode); without it the run only "
             "reports",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--cache-dir", default=CACHE_DIR_DEFAULT, metavar="DIR",
        help=f"per-file analysis cache location (default: {CACHE_DIR_DEFAULT})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-hash cache for this run",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules(out: TextIO) -> None:
    for rule in ALL_RULES:
        scope = (
            "repro." + "|".join(rule.packages)
            if rule.packages
            else ("repro.*" if rule.repro_only else "all files")
        )
        out.write(f"{rule.id}  [{scope}]  {rule.title}\n")
        out.write(f"        {rule.rationale}\n")
    for project_rule in PROJECT_RULES:
        out.write(
            f"{project_rule.id}  [whole-program]  {project_rule.title}\n"
        )
        out.write(f"        {project_rule.rationale}\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    if args.list_rules:
        _list_rules(out)
        return 0

    try:
        rules = select_rules(args.select, args.ignore)
        project_rules = select_project_rules(args.select, args.ignore)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache = None
    if not args.no_cache:
        fingerprint = analyzer_fingerprint(
            sorted({r.id for r in rules} | {r.id for r in project_rules})
        )
        cache = AnalysisCache(Path(args.cache_dir), fingerprint)

    try:
        result = analyze_project_paths(
            args.paths, rules, project_rules, cache=cache
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings = result.findings
    if args.format == "json":
        payload = {
            "version": OUTPUT_SCHEMA_VERSION,
            "files_scanned": result.files_scanned,
            "files_parsed": result.files_parsed,
            "files_cached": result.files_cached,
            "findings": [f.to_json() for f in findings],
            "strict": bool(args.strict),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "sarif":
        out.write(
            json.dumps(to_sarif(findings, rules, project_rules), indent=2)
            + "\n"
        )
    else:
        for finding in findings:
            out.write(finding.render() + "\n")
        status = "ok" if not findings else f"{len(findings)} finding(s)"
        out.write(
            f"{status}: {result.files_scanned} file(s) scanned "
            f"({result.files_parsed} parsed, {result.files_cached} "
            "cached)\n"
        )

    return 1 if args.strict and findings else 0
