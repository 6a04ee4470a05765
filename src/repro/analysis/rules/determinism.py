"""Determinism rules: the seeded byte-identical-replay invariants.

Every rule here encodes a contract the repo's golden-fixture and chaos
tests check only dynamically; see DESIGN.md §6 for the catalog and the
bug history motivating each one.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar, Iterator

from repro.analysis.engine import Finding, Module, Rule

__all__ = ["Det001WallClock", "Det002AmbientRng", "Det003TimeEquality",
           "Seed001SeedlessEntryPoint"]

#: Packages whose behaviour must be a pure function of (inputs, seed):
#: every package that feeds a simulated run (the simulator core,
#: scheduler, runtime, interference and memory models, workload models,
#: machine topology, performance counters and the energy model), the
#: experiment harness, the figure and campaign timer package (whose
#: *measurements* are wall time, but only via the explicitly annotated
#: seam in repro.bench.timers), and the federation tier (ring placement,
#: crash schedules and migration are counted in logical placements, never
#: seconds — a dotted entry, so the rest of ``serve`` keeps its real wall
#: clock).
DETERMINISTIC_PACKAGES = ("sim", "core", "runtime", "exp", "bench",
                          "interference", "memory", "workloads", "topology",
                          "counters", "energy", "serve.federation")

#: DET002/SEED001 additionally cover the serving layer: its *wall time* is
#: real (latency measurement), but its randomness must still replay.
SEEDED_PACKAGES = DETERMINISTIC_PACKAGES + ("serve",)


# ----------------------------------------------------------------------
# DET001 — wall-clock reads in deterministic packages
# ----------------------------------------------------------------------
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Modules allowed to touch the wall clock despite living in a
#: deterministic package (none today; prefer `# repro: noqa DET001` with a
#: justification for single call sites, and entries here only for whole
#: modules whose *job* is wall-time, e.g. a future profiling shim).
DET001_ALLOWED_MODULES: frozenset[str] = frozenset()


class Det001WallClock(Rule):
    id: ClassVar[str] = "DET001"
    title: ClassVar[str] = "wall-clock read in a deterministic package"
    rationale: ClassVar[str] = (
        "the simulator's packages and exp/ must be pure functions of their "
        "inputs and seed; a wall-clock read makes replay diverge silently."
    )
    packages: ClassVar[tuple[str, ...] | None] = DETERMINISTIC_PACKAGES

    def applies(self, mod: Module) -> bool:
        if not super().applies(mod):
            return False
        pkg = mod.repro_package
        return pkg is None or ".".join(pkg) not in DET001_ALLOWED_MODULES

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Attribute):
                qualified = mod.qualified_name(node)
            elif isinstance(node, ast.Name):
                # `from time import monotonic` makes the call site a bare
                # name; resolve through the import table only (a local
                # variable that merely shares a name never matches)
                qualified = mod.imports.get(node.id)
            else:
                continue
            if qualified in _WALL_CLOCK:
                yield self.finding(
                    mod, node,
                    f"wall-clock read `{qualified}` in deterministic package "
                    f"'{(mod.repro_package or ('?',))[0]}' — simulated time "
                    "comes from sim.engine.Clock; real time must be injected "
                    "by the caller",
                )


# ----------------------------------------------------------------------
# DET002 — ambient / unseeded RNG
# ----------------------------------------------------------------------
_AMBIENT_RANDOM = frozenset(
    f"random.{fn}" for fn in (
        "random", "uniform", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "expovariate",
        "betavariate", "triangular", "vonmisesvariate", "paretovariate",
        "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
        "seed",
    )
)
_NUMPY_LEGACY = frozenset(
    f"numpy.random.{fn}" for fn in (
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "uniform",
        "normal", "standard_normal", "exponential", "poisson", "beta",
        "gamma", "binomial", "bytes",
    )
)
_SEEDABLE_CONSTRUCTORS = frozenset({"random.Random", "numpy.random.default_rng"})


class Det002AmbientRng(Rule):
    id: ClassVar[str] = "DET002"
    title: ClassVar[str] = "ambient or unseeded RNG in a seeded package"
    rationale: ClassVar[str] = (
        "randomness must flow from repro.sim.rng substreams or injected "
        "parameters; the process-global `random` state and unseeded "
        "generators cannot be replayed."
    )
    packages: ClassVar[tuple[str, ...] | None] = SEEDED_PACKAGES

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = mod.qualified_name(node.func)
            if qualified is None:
                continue
            if qualified in _AMBIENT_RANDOM or qualified in _NUMPY_LEGACY:
                yield self.finding(
                    mod, node,
                    f"call to module-level RNG `{qualified}` draws from "
                    "process-global state — use repro.sim.rng.stream/pyrandom "
                    "or an injected generator",
                )
            elif (
                qualified in _SEEDABLE_CONSTRUCTORS
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    mod, node,
                    f"`{qualified}()` without a seed is entropy-seeded and "
                    "never replays — derive it from repro.sim.rng or take a "
                    "seed/rng parameter",
                )


# ----------------------------------------------------------------------
# DET003 — float ==/!= on simulated clocks and deadlines
# ----------------------------------------------------------------------
_TIME_TOKENS = frozenset({
    "now", "time", "deadline", "due", "timestamp", "ts", "clock",
    "start", "end", "finish", "when", "t0", "t1", "t",
})
_SPLIT = re.compile(r"[^a-zA-Z0-9]+")


def _terminal_identifier(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_time_like(node: ast.expr) -> bool:
    ident = _terminal_identifier(node)
    if ident is None:
        return False
    parts = [p.lower() for p in _SPLIT.split(ident) if p]
    # strip a leading underscore-private marker: `_now` → `now`
    return any(p in _TIME_TOKENS for p in parts)


def _obviously_not_float(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and (
        node.value is None
        or isinstance(node.value, (str, bytes, bool))
    )


class Det003TimeEquality(Rule):
    id: ClassVar[str] = "DET003"
    title: ClassVar[str] = "exact float equality on simulated time"
    rationale: ClassVar[str] = (
        "simulated timestamps accumulate float error, so == / != resolves "
        "differently at different clock magnitudes (the EventQueue.pop_due "
        "bug, PR 3) — compare with the relative DUE_REL_TOL idiom from "
        "repro.sim.engine instead."
    )
    packages: ClassVar[tuple[str, ...] | None] = DETERMINISTIC_PACKAGES

    def check(self, mod: Module) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _obviously_not_float(left) or _obviously_not_float(right):
                    continue
                if _is_time_like(left) or _is_time_like(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        mod, node,
                        f"`{symbol}` on a simulated-time value "
                        f"(`{ast.unparse(left)} {symbol} {ast.unparse(right)}`)"
                        " — accumulated float error makes exact equality "
                        "magnitude-dependent; use math.isclose with "
                        "DUE_REL_TOL (see sim.engine)",
                    )


# ----------------------------------------------------------------------
# SEED001 — public entry points must expose their seed
# ----------------------------------------------------------------------
_RNG_CONSTRUCTORS = frozenset({
    "repro.sim.rng.stream",
    "repro.sim.rng.pyrandom",
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
})
_SEED_PARAM = re.compile(r"^(seed|seeds|rng|random_state|.*_seed|.*_rng)$")


class Seed001SeedlessEntryPoint(Rule):
    id: ClassVar[str] = "SEED001"
    title: ClassVar[str] = "public entry point draws hidden randomness"
    rationale: ClassVar[str] = (
        "a public function that builds its RNG from values the caller "
        "cannot reach is unreplayable from the outside; every entry point "
        "that draws randomness must accept a seed or generator."
    )
    packages: ClassVar[tuple[str, ...] | None] = SEEDED_PACKAGES

    def check(self, mod: Module) -> Iterator[Finding]:
        for fn in ast.walk(mod.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("_"):
                continue
            yield from self._check_function(mod, fn)

    def _check_function(
        self, mod: Module, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        params = {
            a.arg
            for a in (
                *fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs,
                *((fn.args.vararg,) if fn.args.vararg else ()),
                *((fn.args.kwarg,) if fn.args.kwarg else ()),
            )
        }
        has_seed_param = any(_SEED_PARAM.match(p) for p in params)
        injectable = params | {"self", "cls"}
        for node in self._walk_own_body(fn):
            if not isinstance(node, ast.Call):
                continue
            qualified = mod.qualified_name(node.func)
            if qualified not in _RNG_CONSTRUCTORS:
                continue
            arg_exprs = [*node.args, *(kw.value for kw in node.keywords)]
            injected = any(
                isinstance(name, ast.Name) and name.id in injectable
                for expr in arg_exprs
                for name in ast.walk(expr)
            )
            if injected or has_seed_param:
                continue
            yield self.finding(
                mod, node,
                f"public entry point `{fn.name}` constructs "
                f"`{qualified}(...)` from values no caller can vary — "
                "accept an explicit seed/rng parameter and thread it "
                "through",
            )

    @staticmethod
    def _walk_own_body(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[ast.AST]:
        """Walk ``fn``'s statements without descending into nested defs
        (nested functions are checked on their own if public)."""
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))
