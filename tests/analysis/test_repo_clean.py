"""Meta-test: the shipped tree satisfies its own static invariants.

This is the same gate CI and the pre-commit hook run (``python -m
repro.analysis --strict`` over :data:`SCAN_ROOTS`), expressed as a test so
a violation fails fast in any local pytest run — and so the analyzer
cannot silently rot.  Every finding fails it; a per-line
``# repro: noqa RULE -- why`` is the only way to accept one (DESIGN.md §6).
"""

from pathlib import Path

from repro.analysis import ALL_RULES, analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
#: CI's and the pre-commit hook's scan roots, in their order.
SCAN_ROOT_NAMES = ("src", "tests", "scripts", "benchmarks", "examples",
                   "perfbench", "setup.py")
SCAN_ROOTS = [REPO_ROOT / root for root in SCAN_ROOT_NAMES]


def test_tree_has_no_unbaselined_findings():
    result = analyze_paths(SCAN_ROOTS, ALL_RULES)
    assert result.files_scanned > 150, (
        "scan missed most of the tree — path setup broken?"
    )
    assert not result.findings, "findings:\n" + "\n".join(
        f.render() for f in result.findings
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
