"""Core of the determinism & concurrency sanitizer.

The engine parses each Python file once, hands the AST to every
applicable :class:`Rule`, filters per-line ``# repro: noqa RULE``
suppressions, and returns sorted, de-duplicated :class:`Finding`\\ s.

Rules are *static invariant checks*: each one encodes a replay or
concurrency contract the repo's tests enforce only dynamically (seeded
byte-identical replay, lock discipline, wire-safety).  The engine is
deliberately stdlib-only — ``ast`` plus pathlib — so it can run in CI,
pre-commit, and the test suite with zero extra dependencies.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Iterable,
    Iterator,
    Sequence,
)

from repro.analysis.suppress import line_suppressions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.project import ProjectIndex

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "ProjectRule",
    "analyze_source",
    "decode_source",
    "iter_python_files",
    "parse_module",
    "repro_package_of",
    "run_file_rules",
    "PARSE_RULE_ID",
]

#: Pseudo-rule id attached to files the engine cannot parse (or read) at
#: all.  A PARSE000 finding is a *diagnostic*: the strict CI run keeps
#: going and fails at the end like any other finding, instead of
#: crashing mid-scan.
PARSE_RULE_ID = "PARSE000"

#: Directory names never descended into, on top of hidden directories
#: (leading ``.``, which already covers ``.repro-analysis-cache``):
#: bytecode caches and the run-cache quarantine (forensic copies of
#: corrupt entries — not source code).
SKIP_DIR_NAMES = frozenset({
    "__pycache__", "quarantine", ".repro-analysis-cache",
})


def repro_package_of(path: str) -> tuple[str, ...] | None:
    """Path components below the ``repro`` package, or ``None``.

    Path-only (no parse needed), so the project driver can still scope a
    file that failed to parse.
    """
    parts = PurePosixPath(path).parts
    if "repro" not in parts:
        return None
    idx = parts.index("repro")
    tail = parts[idx + 1 :]
    if not tail:
        return None
    last = tail[-1]
    if last.endswith(".py"):
        tail = tail[:-1] + (last[:-3],)
    return tail


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Module:
    """One parsed source file plus the name-resolution helpers rules share."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = PurePosixPath(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._imports: dict[str, str] | None = None

    # ------------------------------------------------------------------
    @property
    def repro_package(self) -> tuple[str, ...] | None:
        """Path components below the ``repro`` package, or ``None``.

        ``src/repro/sim/rng.py`` → ``("sim", "rng")``; a file outside the
        ``repro`` tree (tests, scripts) → ``None``.
        """
        return repro_package_of(self.path)

    def in_packages(self, packages: Iterable[str]) -> bool:
        """Whether this module lives under any ``repro.<package>``.

        Entries may be dotted sub-package prefixes: ``"serve.federation"``
        matches ``repro/serve/federation/*`` but not the rest of
        ``repro/serve``, while a plain ``"serve"`` matches the whole
        package, sub-packages included.
        """
        pkg = self.repro_package
        if pkg is None or not pkg:
            return False
        for entry in packages:
            prefix = tuple(entry.split("."))
            if pkg[: len(prefix)] == prefix:
                return True
        return False

    # ------------------------------------------------------------------
    @property
    def imports(self) -> dict[str, str]:
        """Local name → fully qualified dotted origin, from the imports.

        ``import numpy as np`` → ``{"np": "numpy"}``;
        ``from time import monotonic as mono`` → ``{"mono": "time.monotonic"}``.
        Relative imports are resolved against the module's ``repro`` package
        when known.
        """
        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        table[alias.asname or alias.name.split(".")[0]] = (
                            alias.name if alias.asname else alias.name.split(".")[0]
                        )
                elif isinstance(node, ast.ImportFrom):
                    base = self._resolve_import_base(node)
                    if base is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        table[alias.asname or alias.name] = f"{base}.{alias.name}"
            self._imports = table
        return self._imports

    def _resolve_import_base(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        pkg = self.repro_package
        if pkg is None:
            return None
        # drop the module filename, then one package per extra level
        parents = ("repro",) + pkg[:-1]
        if node.level - 1 > len(parents):
            return None
        base_parts = parents[: len(parents) - (node.level - 1)]
        if node.module:
            base_parts = base_parts + tuple(node.module.split("."))
        return ".".join(base_parts) if base_parts else None

    # ------------------------------------------------------------------
    def qualified_name(self, node: ast.expr) -> str | None:
        """Dotted origin of a ``Name``/``Attribute`` chain, or ``None``.

        ``np.random.default_rng`` (after ``import numpy as np``) resolves to
        ``"numpy.random.default_rng"``.  Chains rooted anywhere but a plain
        name (calls, subscripts, ``self``) resolve to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


class Rule(ABC):
    """One invariant check.  Subclasses set the class metadata and
    implement :meth:`check`; scoping is declarative via ``packages``."""

    id: ClassVar[str]
    title: ClassVar[str]
    rationale: ClassVar[str]
    #: ``repro`` subpackages the rule applies to, or ``None`` for "any file"
    #: (further narrowed by ``repro_only``).
    packages: ClassVar[tuple[str, ...] | None] = None
    #: When ``packages`` is ``None``: restrict to files under ``repro``?
    repro_only: ClassVar[bool] = False

    def applies(self, mod: Module) -> bool:
        if self.packages is not None:
            return mod.in_packages(self.packages)
        if self.repro_only:
            return mod.repro_package is not None
        return True

    @abstractmethod
    def check(self, mod: Module) -> Iterator[Finding]:
        """Yield every violation in ``mod`` (suppressions applied later)."""

    def finding(self, mod: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


class ProjectRule(ABC):
    """One *whole-program* invariant check (pass 2).

    Unlike :class:`Rule`, which sees one module's AST, a ProjectRule
    sees the :class:`~repro.analysis.project.ProjectIndex` — every
    module's summary plus the cross-module registries — and reports
    findings line-anchored at a concrete witness site, so per-line
    suppressions work identically for both passes.
    """

    id: ClassVar[str]
    title: ClassVar[str]
    rationale: ClassVar[str]

    @abstractmethod
    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        """Yield every violation across the project (suppressions are
        applied by the driver, per witness line)."""

    def finding_at(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=path, line=line, col=col, rule=self.id, message=message
        )


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
def decode_source(data: bytes) -> str:
    """Bytes → analyzable text: strips a UTF-8 BOM (which would otherwise
    be a syntax error as ``\\ufeff``) and replaces undecodable bytes so a
    stray binary file yields a parse diagnostic, not a crash."""
    return data.decode("utf-8-sig", errors="replace")


def parse_module(path: str, source: str) -> tuple[Module | None, Finding | None]:
    """Parse one source file; on failure return a PARSE000 diagnostic.

    ``ast.parse`` raises ``SyntaxError`` for malformed code and
    ``ValueError`` for e.g. null bytes; both become findings so a broken
    file fails the strict run with a location instead of killing it.
    """
    posix = PurePosixPath(path).as_posix()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            path=posix,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule=PARSE_RULE_ID,
            message=f"file does not parse: {exc.msg}",
        )
    except ValueError as exc:
        return None, Finding(
            path=posix, line=1, col=0, rule=PARSE_RULE_ID,
            message=f"file does not parse: {exc}",
        )
    return Module(path, source, tree), None


def run_file_rules(
    mod: Module,
    rules: Sequence[Rule],
    suppressed: dict[int, frozenset[str]],
) -> list[Finding]:
    """All unsuppressed per-file findings for one parsed module."""
    findings: set[Finding] = set()
    for rule in rules:
        if not rule.applies(mod):
            continue
        for finding in rule.check(mod):
            rules_on_line = suppressed.get(finding.line)
            if rules_on_line is not None and (
                not rules_on_line or finding.rule in rules_on_line
            ):
                continue
            findings.add(finding)
    return sorted(findings)


def analyze_source(
    path: str, source: str, rules: Sequence[Rule]
) -> list[Finding]:
    """All unsuppressed findings for one in-memory source file.

    ``path`` also carries the scoping information (which rules apply), so
    tests can exercise package-scoped rules on virtual paths like
    ``src/repro/sim/fixture.py`` without touching the real tree.
    """
    mod, parse_failure = parse_module(path, source)
    if mod is None:
        assert parse_failure is not None
        return [parse_failure]
    return run_file_rules(mod, rules, line_suppressions(mod.lines))


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``*.py`` under the given files/directories, sorted.

    Skips hidden directories (including ``.repro-analysis-cache/``),
    ``__pycache__`` and run-cache ``quarantine/`` directories.  A file
    passed *explicitly* is analyzed even if it sits in one of them.
    """
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            if p.suffix == ".py" and p not in seen:
                seen.add(p)
                yield p
        elif p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if any(
                    part in SKIP_DIR_NAMES
                    or (part.startswith(".") and part not in (".", ".."))
                    for part in sub.parts
                ):
                    continue
                if sub not in seen:
                    seen.add(sub)
                    yield sub
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
