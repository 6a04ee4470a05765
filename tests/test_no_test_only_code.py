"""Every definition in ``src/repro`` has a caller outside the tests.

A helper that only tests call checks code that no simulation, campaign
or served job executes; where it restates logic production inlines
elsewhere, its tests pin the copy, not the path that runs.  This parses
every production file once (the analyzer's scan roots without
``tests``), collects the names they reference, and fails on any ``def``
or ``class`` under ``src/repro`` whose name is not among them, unless
:data:`ALLOWED` names it with a reason.

The match is by name, not by resolved symbol: a method shares its
references with every other definition of the same name, so this can
miss dead code but never flags live code.  References are ``Name`` ids,
``Attribute`` attrs, import aliases, and string constants that parse as
an expression (quoted annotations, ``getattr`` and patch targets).
Docstrings, f-string text and ``__all__`` entries are not references:
``__all__`` exports a name, it does not use it.  Dunders are exempt, and
so are ``visit_*`` methods, which ``ast.NodeVisitor`` calls by name.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

from tests.analysis.test_repo_clean import REPO_ROOT, SCAN_ROOT_NAMES

SRC = REPO_ROOT / "src" / "repro"
PRODUCTION_ROOTS = [REPO_ROOT / root for root in SCAN_ROOT_NAMES
                    if root != "tests"]

#: Definitions kept with no production caller, each with its reason.
#: An entry fails the check once production references its name or its
#: definition is gone, so the list cannot go stale.
ALLOWED = {
    "ReferenceRuntime": (
        "the differential oracle of tests/sim/test_engine_equivalence.py: "
        "a reference implementation tests compare the engine against"
    ),
    "TaskloopPTT.import_wire": (
        "tenant warm state (ROADMAP): a served job restores its tenant's "
        "checkpoint through it, or the item deletes the payload"
    ),
    "MoldabilityController.export_state": (
        "tenant warm state (ROADMAP): wired into served jobs or deleted "
        "with the checkpoint payload"
    ),
    "MoldabilityController.restore_state": (
        "tenant warm state (ROADMAP): wired into served jobs or deleted "
        "with the checkpoint payload"
    ),
}


def _add_definitions(tree: ast.AST, path: str, prefix: str,
                     found: list[tuple[str, int, str]]) -> None:
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((path, child.lineno, prefix + child.name))
            _add_definitions(child, path, f"{prefix}{child.name}.", found)
        else:
            _add_definitions(child, path, prefix, found)


def _names_in_expression(text: str) -> set[str]:
    try:
        expr = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return set()
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(expr)
            if isinstance(node, (ast.Name, ast.Attribute))}


@functools.cache
def scan() -> tuple[set[str], list[tuple[str, int, str]]]:
    """Names the production files reference, and ``(path, line,
    qualified name)`` of every def and class in src/repro."""
    files: list[Path] = []
    for root in PRODUCTION_ROOTS:
        files.extend([root] if root.is_file() else sorted(root.rglob("*.py")))
    assert len(files) > 100, "scan missed most of the production tree"
    names: set[str] = set()
    strings: set[str] = set()
    definitions: list[tuple[str, int, str]] = []
    for file in files:
        path = file.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(file.read_bytes(), filename=path)
        if SRC in file.parents:
            _add_definitions(tree, path, "", definitions)
        # ast.walk visits a parent before its children, so a string is
        # marked skipped before the walk reaches it
        skipped: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant):
                if isinstance(node.value, str) and id(node) not in skipped:
                    strings.add(node.value)
            elif isinstance(node, ast.JoinedStr):
                skipped.update(id(part) for part in node.values)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                skipped.update(id(c) for c in ast.walk(node.value))
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and node.body and isinstance(node.body[0], ast.Expr)):
                skipped.add(id(node.body[0].value))
    for text in strings:
        names |= _names_in_expression(text)
    return names, definitions


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("visit_")


def test_every_definition_has_a_production_reference():
    referenced, definitions = scan()
    flagged = [
        f"{path}:{line} {qualname}"
        for path, line, qualname in definitions
        if qualname not in ALLOWED
        and not _exempt(name := qualname.rsplit(".", 1)[-1])
        and name not in referenced
    ]
    assert not flagged, (
        "definitions that only tests reference; delete them with their "
        "tests, or give ALLOWED a reason:\n" + "\n".join(flagged)
    )


def test_allow_list_is_current():
    referenced, definitions = scan()
    defined = {qualname for _, _, qualname in definitions}
    stale = [
        f"{qualname}: " + ("no longer defined" if qualname not in defined
                          else "now referenced by production code")
        for qualname in ALLOWED
        if qualname not in defined or qualname.rsplit(".", 1)[-1] in referenced
    ]
    assert not stale, "ALLOWED entries to remove:\n" + "\n".join(stale)
