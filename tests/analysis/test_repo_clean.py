"""Meta-test: the shipped tree satisfies its own static invariants.

This is the same gate CI and the pre-commit hook run (``python -m
repro.analysis --strict`` over :data:`SCAN_ROOTS`), expressed as a test so
a violation fails fast in any local pytest run — and so the analyzer
cannot silently rot.  Both passes run: the per-file rules and the
whole-program LOCK002 / SEED002 / WIRE002 pass (uncached — the meta-test
must not depend on cache state).

Policy assertions ride along: the deterministic core (``sim/``,
``core/``, ``serve/``, ``exp/``) must have *zero* baseline entries —
findings there get fixed, not grandfathered (DESIGN.md §6).
"""

import json
from collections import Counter
from pathlib import Path

from repro.analysis import ALL_RULES, PROJECT_RULES
from repro.analysis.baseline import load_baseline, partition_findings
from repro.analysis.rules import all_rule_ids
from repro.analysis.run import analyze_project_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "analysis-baseline.json"
#: CI's and the pre-commit hook's scan roots, in their order.
SCAN_ROOT_NAMES = ("src", "tests", "scripts", "benchmarks", "examples",
                   "perfbench", "setup.py")
SCAN_ROOTS = [REPO_ROOT / root for root in SCAN_ROOT_NAMES]

#: repro subpackages where grandfathering is forbidden outright.
NO_BASELINE_PACKAGES = ("repro/sim/", "repro/core/", "repro/serve/", "repro/exp/")


def _scan():
    result = analyze_project_paths(SCAN_ROOTS, ALL_RULES, PROJECT_RULES)
    assert result.files_scanned > 150, (
        "scan missed most of the tree — path setup broken?"
    )
    return result.findings


def test_tree_has_no_unbaselined_findings():
    findings = _scan()
    baseline = load_baseline(BASELINE) if BASELINE.exists() else Counter()
    new, _grandfathered, stale, retired = partition_findings(
        findings, baseline, known_rules=all_rule_ids()
    )
    assert not new, "unbaselined findings:\n" + "\n".join(
        f.render() for f in new
    )
    assert not stale, "stale baseline entries (delete them):\n" + "\n".join(stale)
    assert not retired, (
        "baseline entries for retired rule ids:\n" + "\n".join(retired)
    )


def test_core_packages_have_no_baseline_entries():
    if not BASELINE.exists():
        return  # no baseline at all: trivially satisfied
    data = json.loads(BASELINE.read_text(encoding="utf-8"))
    offenders = [
        entry
        for entry in data.get("findings", [])
        if any(marker in entry["path"] for marker in NO_BASELINE_PACKAGES)
    ]
    assert not offenders, (
        "sim/, core/, serve/ and exp/ must stay baseline-free; fix these instead "
        f"of grandfathering: {offenders}"
    )


def test_ci_and_hook_scan_the_same_roots():
    """Each analyzer command in CI and the hook lists SCAN_ROOTS on the
    line after ``-m repro.analysis``."""
    roots = " ".join(SCAN_ROOT_NAMES)
    for config in (".github/workflows/ci.yml", ".pre-commit-config.yaml"):
        text = (REPO_ROOT / config).read_text(encoding="utf-8")
        scanned = [line.split(">")[0].strip() for line in text.splitlines()
                   if line.strip().startswith("src ")]
        assert len(scanned) == text.count("-m repro.analysis") > 0, config
        assert set(scanned) == {roots}, (config, scanned)
