"""Shared helpers for the analyzer's own test suite.

Fixture snippets live in *string literals* (never on disk as real
``.py`` files), so running the analyzer over ``tests/`` in CI cannot
trip over its own true-positive fixtures.
"""

import textwrap

import pytest

from repro.analysis import ALL_RULES, analyze_source, select_rules

#: Virtual paths that place a fixture snippet inside a scoped package.
SIM = "src/repro/sim/fixture.py"
CORE = "src/repro/core/fixture.py"
RUNTIME = "src/repro/runtime/fixture.py"
EXP = "src/repro/exp/fixture.py"
SERVE = "src/repro/serve/fixture.py"
PROTOCOL = "src/repro/serve/protocol.py"
OUTSIDE = "scripts/fixture.py"


@pytest.fixture
def check():
    """``check(path, source, select=None)`` → list of Finding.

    Dedents the snippet and runs either the full rule set or the
    ``--select``-style comma list given in ``select``.
    """

    def _check(path, source, select=None):
        rules = select_rules(select) if select else ALL_RULES
        return analyze_source(path, textwrap.dedent(source), rules)

    return _check


@pytest.fixture
def rule_ids(check):
    """``rule_ids(path, source, select=None)`` → sorted list of rule ids."""

    def _ids(path, source, select=None):
        return sorted({f.rule for f in check(path, source, select)})

    return _ids
