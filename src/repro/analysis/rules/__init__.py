"""Rule registry: every shipped invariant check, in catalog order."""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.concurrency import (
    Asy001BlockingInAsync,
    Lock001InconsistentLocking,
)
from repro.analysis.rules.determinism import (
    Det001WallClock,
    Det002AmbientRng,
    Det003TimeEquality,
    Seed001SeedlessEntryPoint,
    Seed002DroppedSeed,
)
from repro.analysis.rules.exceptions import Exc001ExceptionHygiene
from repro.analysis.rules.io import Io001DurableWrites
from repro.analysis.rules.wire import Wire001JsonSafeFields

__all__ = [
    "ALL_RULES",
    "rules_by_id",
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
    Seed002DroppedSeed(),
)


def rules_by_id() -> dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}


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
    """The rule set after ``--select`` / ``--ignore`` filtering.

    Both take comma-separated rule ids; unknown ids raise ``ValueError``
    so typos fail loudly instead of silently checking nothing.
    """
    known = set(rules_by_id())
    selected = _parse_spec(select, known) or known
    selected -= _parse_spec(ignore, known)
    return tuple(rule for rule in ALL_RULES if rule.id in selected)
