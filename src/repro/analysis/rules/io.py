"""I/O durability rules: crash-safe writes on durable paths.

The experiment harness and the scheduling service persist results,
cache entries and snapshots that later runs *trust* (the cache serves
them to a rerun, operators read them).  A plain ``open(..., "w")`` or
``Path.write_text`` tears under a crash — the file exists with half its
bytes — so every durable write in those packages, with no exemption,
must go through :func:`repro.ioutil.atomic_write` (tmp file + fsync +
rename).  See DESIGN.md §5c for the durability model this enforces.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.engine import Finding, Module, Rule

__all__ = ["Io001DurableWrites"]

#: Packages whose on-disk artefacts must survive a crash mid-write.
DURABLE_PACKAGES = ("exp", "serve")

#: Callables that open a raw writable handle when given a write mode.
_OPENERS = frozenset({"open", "builtins.open", "io.open", "os.fdopen"})

#: Path convenience writers — always a full-file replacement, so always
#: expressible (and torn-write-proof) as an atomic_write.
_PATH_WRITERS = frozenset({"write_text", "write_bytes"})

_WRITE_MODE_CHARS = set("wax+")


def _write_mode(call: ast.Call, mode_index: int) -> str | None:
    """The call's file-mode string when it is a *write* mode literal.

    ``mode_index`` is the mode's positional slot — 1 for ``open(file,
    mode)``-shaped callables, 0 for ``Path.open(mode)``-shaped method
    calls.  Returns ``None`` for read modes, for a missing mode (the
    default is ``"r"``), and for non-constant modes (undecidable
    statically — the dynamic tests own those; guessing here would only
    manufacture false positives).
    """
    mode_node: ast.expr | None = None
    if len(call.args) > mode_index:
        mode_node = call.args[mode_index]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if not isinstance(mode_node, ast.Constant) or not isinstance(mode_node.value, str):
        return None
    mode = mode_node.value
    return mode if _WRITE_MODE_CHARS & set(mode) else None


class Io001DurableWrites(Rule):
    id: ClassVar[str] = "IO001"
    title: ClassVar[str] = "non-atomic write on a durable path"
    rationale: ClassVar[str] = (
        "exp/ and serve/ artefacts (results, cache entries, snapshots) "
        "are trusted by later runs; a direct open-for-write "
        "tears under a crash — route the write through "
        "repro.ioutil.atomic_write so readers only ever see a complete "
        "old or new file."
    )
    packages: ClassVar[tuple[str, ...] | None] = DURABLE_PACKAGES

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = mod.qualified_name(node.func)
            mode = None
            if qualified in _OPENERS:
                mode = _write_mode(node, 1)
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "open":
                # `anything.open(mode)` — Path.open and friends; the root
                # may be a variable so the qualified name can be None
                mode = _write_mode(node, 0)
            if mode is not None:
                yield self.finding(
                    mod, node,
                    f"open with write mode {mode!r} on a durable path — "
                    "a crash mid-write leaves a torn file; use "
                    "repro.ioutil.atomic_write",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _PATH_WRITERS
            ):
                yield self.finding(
                    mod, node,
                    f"`.{node.func.attr}(...)` writes in place — a crash "
                    "mid-write leaves a torn file; use "
                    "repro.ioutil.atomic_write",
                )
