"""Static determinism & concurrency sanitizer (``python -m repro.analysis``).

An AST-walking lint engine that enforces the repo's replay invariants —
the properties the golden-fixture and chaos tests check dynamically —
as static checks that run in CI and pre-commit.  Every rule sees one
file at a time:

========  =============================================================
DET001    no wall-clock reads in the simulator's packages and exp/
DET002    no ambient/unseeded RNG in deterministic + serving packages
DET003    no float ``==``/``!=`` on simulated clocks and deadlines
ASY001    no blocking calls inside ``async def`` in serve/
LOCK001   lock-guarded attributes are never written without the lock
IO001     no non-atomic writes to durable paths in exp/ and serve/
WIRE001   serve/protocol.py dataclass fields stay JSON-wire-safe
EXC001    no bare ``except:``, no swallowed ``CancelledError``
SEED001   public entry points that draw randomness accept a seed/rng
SEED002   every accepted seed/rng parameter is read
========  =============================================================

See DESIGN.md §6 for the full catalog, rationale and suppression policy:
``--strict`` fails on every finding, and a per-line
``# repro: noqa RULE -- justification`` is the only way to accept one.
"""

from __future__ import annotations

from repro.analysis.engine import (
    Finding,
    Module,
    Rule,
    analyze_paths,
    analyze_source,
)
from repro.analysis.rules import ALL_RULES, rules_by_id, select_rules

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "ALL_RULES",
    "analyze_paths",
    "analyze_source",
    "rules_by_id",
    "select_rules",
]
