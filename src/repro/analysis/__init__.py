"""Static determinism & concurrency sanitizer (``python -m repro.analysis``).

An AST-walking lint engine that enforces the repo's replay invariants —
the properties the golden-fixture and chaos tests check dynamically —
as static checks that run in CI and pre-commit:

========  =============================================================
DET001    no wall-clock reads in the simulator's packages and exp/
DET002    no ambient/unseeded RNG in deterministic + serving packages
DET003    no float ``==``/``!=`` on simulated clocks and deadlines
ASY001    no blocking calls inside ``async def`` in serve/
LOCK001   lock-guarded attributes are never written without the lock
WIRE001   serve/protocol.py dataclass fields stay JSON-wire-safe
EXC001    no bare ``except:``, no swallowed ``CancelledError``
SEED001   public entry points that draw randomness accept a seed/rng
========  =============================================================

Every run is two passes: pass 1 runs those rules and reduces each file
to a :class:`~repro.analysis.project.ModuleSummary` (cached by content
hash under ``.repro-analysis-cache/``), pass 2 assembles the
:class:`~repro.analysis.project.ProjectIndex` + call graph and runs the
interprocedural rules:

========  =============================================================
LOCK002   no lock-order cycles across modules (lockdep-style)
SEED002   an accepted seed/rng parameter must reach an RNG on some path
WIRE002   protocol dataclasses and all their users agree on the schema
========  =============================================================

See DESIGN.md §6 for the full catalog, rationale and suppression policy
(per-line ``# repro: noqa RULE -- justification``; grandfathered findings
live in ``analysis-baseline.json``).
"""

from __future__ import annotations

from repro.analysis.engine import (
    Finding,
    Module,
    ProjectRule,
    Rule,
    analyze_source,
)
from repro.analysis.project import ModuleSummary, ProjectIndex, summarize_module
from repro.analysis.rules import (
    ALL_RULES,
    PROJECT_RULES,
    rules_by_id,
    select_rules,
)
from repro.analysis.run import analyze_project_paths, analyze_project_source

__all__ = [
    "Finding",
    "Module",
    "ModuleSummary",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "ALL_RULES",
    "PROJECT_RULES",
    "analyze_project_paths",
    "analyze_project_source",
    "analyze_source",
    "rules_by_id",
    "select_rules",
    "summarize_module",
]
