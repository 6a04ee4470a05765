"""Rule registry: every shipped invariant check, in catalog order.

Two registries: ``ALL_RULES`` (per-file pass) and ``PROJECT_RULES``
(whole-program pass).  ``--select`` / ``--ignore`` address both with one
id namespace.
"""

from __future__ import annotations

from repro.analysis.engine import ProjectRule, Rule
from repro.analysis.rules.concurrency import (
    Asy001BlockingInAsync,
    Lock001InconsistentLocking,
)
from repro.analysis.rules.determinism import (
    Det001WallClock,
    Det002AmbientRng,
    Det003TimeEquality,
    Seed001SeedlessEntryPoint,
)
from repro.analysis.rules.exceptions import Exc001ExceptionHygiene
from repro.analysis.rules.io import Io001DurableWrites
from repro.analysis.rules.lockorder import Lock002LockOrderCycle
from repro.analysis.rules.seedflow import Seed002DroppedSeed
from repro.analysis.rules.wire import Wire001JsonSafeFields
from repro.analysis.rules.wiredrift import Wire002SchemaDrift

__all__ = [
    "ALL_RULES",
    "PROJECT_RULES",
    "all_rule_ids",
    "project_rules_by_id",
    "rules_by_id",
    "select_project_rules",
    "select_rules",
]

#: Catalog order (also the order findings are documented in DESIGN.md §6).
ALL_RULES: tuple[Rule, ...] = (
    Det001WallClock(),
    Det002AmbientRng(),
    Det003TimeEquality(),
    Asy001BlockingInAsync(),
    Lock001InconsistentLocking(),
    Io001DurableWrites(),
    Wire001JsonSafeFields(),
    Exc001ExceptionHygiene(),
    Seed001SeedlessEntryPoint(),
)

#: Whole-program rules, catalog order.
PROJECT_RULES: tuple[ProjectRule, ...] = (
    Lock002LockOrderCycle(),
    Seed002DroppedSeed(),
    Wire002SchemaDrift(),
)


def rules_by_id() -> dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}


def project_rules_by_id() -> dict[str, ProjectRule]:
    return {rule.id: rule for rule in PROJECT_RULES}


def all_rule_ids() -> set[str]:
    """Every known rule id across both passes."""
    return set(rules_by_id()) | set(project_rules_by_id())


def _parse_spec(spec: str | None, known: set[str]) -> set[str]:
    if not spec:
        return set()
    ids = {part.strip() for part in spec.split(",") if part.strip()}
    unknown = ids - known
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {sorted(unknown)}; known: {sorted(known)}"
        )
    return ids


def select_rules(
    select: str | None = None, ignore: str | None = None
) -> tuple[Rule, ...]:
    """The per-file rule set after ``--select`` / ``--ignore`` filtering.

    Both take comma-separated rule ids; unknown ids raise ``ValueError``
    so typos fail loudly instead of silently checking nothing.  Project
    rule ids are accepted (they select nothing here — the project pass
    filters with :func:`select_project_rules`).
    """
    known = all_rule_ids()
    selected = _parse_spec(select, known) or known
    selected -= _parse_spec(ignore, known)
    return tuple(rule for rule in ALL_RULES if rule.id in selected)


def select_project_rules(
    select: str | None = None, ignore: str | None = None
) -> tuple[ProjectRule, ...]:
    """Same filtering for the whole-program pass."""
    known = all_rule_ids()
    selected = _parse_spec(select, known) or known
    selected -= _parse_spec(ignore, known)
    return tuple(rule for rule in PROJECT_RULES if rule.id in selected)
