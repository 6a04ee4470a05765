"""SARIF 2.1.0 serialization of analysis findings.

One run, one driver, every selected rule in the rule catalog, findings
as ``results`` with physical locations.  SARIF columns are 1-based;
:class:`~repro.analysis.engine.Finding.col` is 0-based, so the region
converts.  The output is what CI uploads as the code-scanning artifact.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.engine import Finding, Rule

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def _rule_entry(rule: Rule) -> dict[str, Any]:
    return {
        "id": rule.id,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
    }


def to_sarif(
    findings: Sequence[Finding], rules: Sequence[Rule]
) -> dict[str, Any]:
    """The findings as one SARIF log dict (``json.dump``-ready)."""
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "rules": [_rule_entry(rule) for rule in rules],
                    }
                },
                "results": results,
            }
        ],
    }
