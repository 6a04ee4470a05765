"""Two-pass whole-program driver.

Pass 1 walks every file once: per-file rules run on the AST and the file
is reduced to a :class:`~repro.analysis.project.ModuleSummary`.  Both
results (plus the ``# repro: noqa`` table) are cached by content hash —
a warm run re-parses only files whose bytes changed.  Pass 2 assembles
the summaries into a :class:`~repro.analysis.project.ProjectIndex` and
runs every :class:`~repro.analysis.engine.ProjectRule`; project findings
are line-anchored at a witness site, so the same per-line suppressions
apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.cache import AnalysisCache, CacheEntry, content_digest
from repro.analysis.engine import (
    PARSE_RULE_ID,
    Finding,
    ProjectRule,
    Rule,
    decode_source,
    iter_python_files,
    parse_module,
    repro_package_of,
    run_file_rules,
)
from repro.analysis.project import (
    ModuleSummary,
    ProjectIndex,
    parse_failure_summary,
    summarize_module,
)
from repro.analysis.suppress import line_suppressions

__all__ = ["ProjectRunResult", "analyze_project_paths", "analyze_project_source"]


@dataclass
class ProjectRunResult:
    """Findings plus the scan statistics the CLI/CI report."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Files actually read + parsed this run (cache misses).
    files_parsed: int = 0
    #: Files served from the content-hash cache.
    files_cached: int = 0


def _apply_project_suppressions(
    findings: list[Finding],
    suppressions: Mapping[str, Mapping[int, frozenset[str]]],
) -> list[Finding]:
    kept: list[Finding] = []
    for finding in findings:
        rules_on_line = suppressions.get(finding.path, {}).get(finding.line)
        if rules_on_line is not None and (
            not rules_on_line or finding.rule in rules_on_line
        ):
            continue
        kept.append(finding)
    return kept


def run_project_rules(
    index: ProjectIndex,
    project_rules: Sequence[ProjectRule],
    suppressions: Mapping[str, Mapping[int, frozenset[str]]],
) -> list[Finding]:
    """Pass 2: every project rule over the assembled index."""
    findings: set[Finding] = set()
    for rule in project_rules:
        findings.update(rule.check_project(index))
    return _apply_project_suppressions(sorted(findings), suppressions)


def analyze_project_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule],
    project_rules: Sequence[ProjectRule],
    *,
    cache: AnalysisCache | None = None,
) -> ProjectRunResult:
    """Run both passes over files/trees on disk."""
    result = ProjectRunResult()
    summaries: list[ModuleSummary] = []
    suppressions: dict[str, dict[int, frozenset[str]]] = {}

    for file in iter_python_files(paths):
        result.files_scanned += 1
        path = file.as_posix()
        try:
            data = file.read_bytes()
        except OSError as exc:
            result.files_parsed += 1
            result.findings.append(Finding(
                path=path, line=1, col=0, rule=PARSE_RULE_ID,
                message=f"file cannot be read: {exc}",
            ))
            summaries.append(
                parse_failure_summary(path, repro_package_of(path))
            )
            continue

        digest = content_digest(data)
        if cache is not None:
            entry = cache.load(path, digest)
            if entry is not None:
                result.files_cached += 1
                result.findings.extend(entry.findings)
                summaries.append(entry.summary)
                suppressions[path] = dict(entry.suppressions)
                continue

        result.files_parsed += 1
        source = decode_source(data)
        mod, parse_failure = parse_module(path, source)
        if mod is None:
            assert parse_failure is not None
            file_findings = [parse_failure]
            summary = parse_failure_summary(path, repro_package_of(path))
            file_suppressions: dict[int, frozenset[str]] = {}
        else:
            file_suppressions = line_suppressions(mod.lines)
            file_findings = run_file_rules(mod, rules, file_suppressions)
            summary = summarize_module(mod)
        result.findings.extend(file_findings)
        summaries.append(summary)
        suppressions[path] = file_suppressions
        if cache is not None:
            cache.store(path, CacheEntry(
                digest=digest,
                findings=file_findings,
                summary=summary,
                suppressions=file_suppressions,
            ))

    index = ProjectIndex(summaries)
    result.findings.extend(run_project_rules(index, project_rules, suppressions))
    result.findings = sorted(set(result.findings))
    return result


def analyze_project_source(
    files: Mapping[str, str],
    project_rules: Sequence[ProjectRule],
) -> list[Finding]:
    """Test helper: pass 2 over in-memory sources at virtual paths.

    Per-file rules are skipped (covered by :func:`analyze_source`); the
    per-line suppressions still apply to the project findings.
    """
    summaries: list[ModuleSummary] = []
    suppressions: dict[str, dict[int, frozenset[str]]] = {}
    for path in sorted(files):
        source = files[path]
        mod, _ = parse_module(path, source)
        if mod is None:
            summaries.append(
                parse_failure_summary(path, repro_package_of(path))
            )
            continue
        summaries.append(summarize_module(mod))
        suppressions[mod.path] = line_suppressions(mod.lines)
    index = ProjectIndex(summaries)
    return run_project_rules(index, project_rules, suppressions)
