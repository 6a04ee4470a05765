"""Command line: ``python -m repro.analysis [paths] [options]``.

Exit-code contract (relied on by CI and pre-commit):

* ``0`` — no unbaselined findings (or report-only mode without
  ``--strict``);
* ``1`` — unbaselined findings (or retired baseline entries) and
  ``--strict``;
* ``2`` — usage or I/O error (unknown rule id, missing path, corrupt
  baseline file).

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
from collections import Counter
from pathlib import Path
from typing import Sequence, TextIO

from repro.analysis.baseline import (
    load_baseline,
    partition_findings,
    write_baseline,
)
from repro.analysis.cache import (
    CACHE_DIR_DEFAULT,
    AnalysisCache,
    analyzer_fingerprint,
)
from repro.analysis.rules import (
    ALL_RULES,
    PROJECT_RULES,
    all_rule_ids,
    select_project_rules,
    select_rules,
)
from repro.analysis.run import analyze_project_paths
from repro.analysis.sarif import to_sarif

__all__ = ["main", "build_parser"]

OUTPUT_SCHEMA_VERSION = 3
DEFAULT_BASELINE = "analysis-baseline.json"


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
        help="exit 1 on unbaselined findings (CI mode); without it the "
             "run only reports",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="PATH",
        help=f"grandfathered-findings file (default: {DEFAULT_BASELINE}; "
             "a missing file is an empty baseline)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file: report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
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
        "--exclude", action="append", default=[], metavar="GLOB",
        help="skip files matching this glob (against the posix path or "
             "basename; repeatable)",
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
            args.paths, rules, project_rules,
            cache=cache, exclude=args.exclude,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline)
    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to baseline "
            f"{baseline_path}",
            file=sys.stderr,
        )
        return 0

    try:
        baseline = (
            load_baseline(baseline_path) if not args.no_baseline else None
        )
    except (ValueError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: corrupt baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    new, grandfathered, stale, retired = partition_findings(
        result.findings,
        baseline if baseline is not None else Counter(),
        known_rules=all_rule_ids(),
    )

    if args.format == "json":
        payload = {
            "version": OUTPUT_SCHEMA_VERSION,
            "files_scanned": result.files_scanned,
            "files_parsed": result.files_parsed,
            "files_cached": result.files_cached,
            "findings": [f.to_json() for f in new],
            "baselined": len(grandfathered),
            "stale_baseline_entries": stale,
            "retired_baseline_entries": retired,
            "strict": bool(args.strict),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "sarif":
        out.write(
            json.dumps(to_sarif(new, rules, project_rules), indent=2) + "\n"
        )
    else:
        for finding in new:
            out.write(finding.render() + "\n")
        for key in stale:
            out.write(f"stale baseline entry (delete it): {key}\n")
        for key in retired:
            out.write(
                f"retired baseline entry (rule no longer exists): {key}\n"
            )
        status = "ok" if not new else f"{len(new)} finding(s)"
        out.write(
            f"{status}: {result.files_scanned} file(s) scanned "
            f"({result.files_parsed} parsed, {result.files_cached} "
            f"cached), {len(new)} new, {len(grandfathered)} baselined, "
            f"{len(stale)} stale / {len(retired)} retired baseline "
            "entrie(s)\n"
        )

    if args.strict and (new or retired):
        return 1
    return 0
