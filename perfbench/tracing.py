"""Span tracing of the program's layers, applied from outside.

No source file of the program is touched: :func:`install` replaces a
fixed list of public callables (methods on their classes, functions in
the module that calls them) with timing wrappers, once per process.

Two kinds of hook:

* **span hooks** record one :class:`Span` per call — name, start, end,
  the span that was open when the call began (its parent) and the
  request (served job or campaign cell) it belongs to.  The open span is
  tracked in a :class:`contextvars.ContextVar`, so concurrent asyncio
  tasks and executor threads each see their own nesting;
* **fine hooks** sit on calls made many times per simulated step
  (slowdown recompute, memory access resolution, clock advances).  They
  add a count and a busy time to the innermost open span instead of
  recording spans of their own, which keeps memory flat and the overhead
  low.

Spans stay in memory and are written out once, by :func:`write_spans`.
A span's *self time* is its duration minus the union of its child
spans' intervals and minus the busy time of the fine hooks it holds.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter

#: The innermost open span of the running task or thread.
_current: ContextVar["Span | None"] = ContextVar("perfbench_span", default=None)
#: The request (client-visible job id, campaign cell) of the running code.
_request: ContextVar[str | None] = ContextVar("perfbench_request", default=None)


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "request", "thread", "fine", "counts")

    def __init__(self, name: str, parent: "Span | None", request: str | None):
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        #: fine-hook name -> [calls, busy seconds] made while this span was innermost
        self.fine: dict[str, list[float]] | None = None
        #: named counts attached by result callbacks (tasks executed, cache hit)
        self.counts: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add_count(self, key: str, value: float) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0.0) + value


class Tracer:
    """Collects spans while :attr:`active`; inert otherwise."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        #: server-local request id -> client-visible job id
        self.aliases: dict[str, str] = {}
        self.main_thread = threading.get_ident()
        #: fine-hook time spent outside every span (kept so nothing is lost)
        self.loose: dict[str, list[float]] = {}
        self._loose_lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> tuple[Span, Any]:
        span = Span(name, _current.get(), _request.get())
        self.spans.append(span)
        token = _current.set(span)
        span.start = _clock()
        return span, token

    @staticmethod
    def close(span: Span, token: Any) -> None:
        span.end = _clock()
        _current.reset(token)

    def add_fine(self, name: str, calls: int, busy: float) -> None:
        span = _current.get()
        if span is not None:
            if span.fine is None:
                span.fine = {}
            slot = span.fine.get(name)
            if slot is None:
                span.fine[name] = [calls, busy]
            else:
                slot[0] += calls
                slot[1] += busy
            return
        with self._loose_lock:
            slot = self.loose.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += busy

    def alias(self, local: str, visible: str) -> None:
        self.aliases[local] = visible

    def resolve(self, request: str | None) -> str | None:
        return self.aliases.get(request, request)

    # -- derived quantities ---------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(id(span.parent), []).append(span)
        return kids

    def self_time(self, span: Span, kids: dict[int, list[Span]]) -> float:
        """Duration minus the union of child intervals minus fine-hook time."""
        covered = 0.0
        lo_prev, hi_prev = None, None
        for child in sorted(kids.get(id(span), ()), key=lambda s: s.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if hi_prev is None or lo > hi_prev:
                if hi_prev is not None:
                    covered += hi_prev - lo_prev
                lo_prev, hi_prev = lo, hi
            else:
                hi_prev = max(hi_prev, hi)
        if hi_prev is not None:
            covered += hi_prev - lo_prev
        if span.fine:
            covered += sum(busy for _, busy in span.fine.values())
        return max(0.0, span.duration - covered)


TRACER = Tracer()


def set_request(request: str | None) -> Any:
    """Tag spans opened from here on (in this task/thread) with ``request``."""
    return _request.set(request)


def reset_request(token: Any) -> None:
    _request.reset(token)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
OnResult = Callable[[Span, tuple, dict, Any], None]


def _span_sync(name: str, fn: Callable, on_result: OnResult | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = TRACER
        if not tracer.active:
            return fn(*args, **kwargs)
        parent = _current.get()
        if parent is not None and parent.name == name:
            return fn(*args, **kwargs)  # a subclass calling super(): one span
        span, token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result

    return wrapper


def _span_async(name: str, fn: Callable, on_result: OnResult | None) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = TRACER
        if not tracer.active:
            return await fn(*args, **kwargs)
        span, token = tracer.open(name)
        try:
            result = await fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result

    return wrapper


_in_fine = threading.local()


def _fine_timed(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not TRACER.active or getattr(_in_fine, "name", None) == name:
            return fn(*args, **kwargs)
        _in_fine.name = name
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            busy = _clock() - t0
            _in_fine.name = None
            TRACER.add_fine(name, 1, busy)

    return wrapper


def _fine_counted(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if TRACER.active:
            TRACER.add_fine(name, 1, 0.0)
        return fn(*args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# result callbacks: request identity and counts
# ----------------------------------------------------------------------
def _count_tasks(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.add_count("tasks", result.tasks_executed)


def _cache_hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.add_count("hit", 0.0 if result is None else 1.0)


def _service_tag(owner: Any) -> str:
    """The name :func:`tag_service` gave a service or its arbiter."""
    tag = getattr(owner, "_perfbench_tag", None)
    return tag if tag is not None else f"svc{id(owner):x}"


def _service_submit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # SchedulingService.submit(self, request) -> JobRecord
    span.request = f"{_service_tag(args[0])}/{result.job_id}"


def _router_submit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # FederationRouter.submit(self, request) -> FederatedJob
    router = args[0]
    service = router.instances[result.shard_id].service
    TRACER.alias(f"{_service_tag(service)}/{result.local_job_id}", result.fed_id)
    span.request = result.fed_id


def _router_status(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.request = result.get("job_id")


def _client_submit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.request = result


def _lease_acquired(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # NodeArbiter.acquire(self, job_id, nodes, preferred=...): the worker
    # task that asked keeps this job's identity for its next calls
    span.request = f"{_service_tag(args[0])}/{args[1]}"
    _request.set(span.request)


_pending_specs: dict[int, str] = {}


def _job_specs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    request = _request.get()
    if request is not None:
        _pending_specs[id(result)] = request


def _wrap_run_specs(fn: Callable) -> Callable:
    """``Runner.run_specs`` span that adopts the job id of its spec list
    (served jobs run it on an executor thread, where no context flows)."""
    traced = _span_sync("exp.run_specs", fn, None)

    @functools.wraps(fn)
    def wrapper(self: Any, specs: Any, *args: Any, **kwargs: Any) -> Any:
        request = _pending_specs.pop(id(specs), None)
        if request is None or not TRACER.active:
            return traced(self, specs, *args, **kwargs)
        token = _request.set(request)
        try:
            return traced(self, specs, *args, **kwargs)
        finally:
            _request.reset(token)

    return wrapper


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
_installed: list[tuple[Any, str, Any]] = []


def _patch(owner: Any, attr: str, wrapper: Callable) -> None:
    _installed.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrapper)


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def install() -> None:
    """Wrap every layer hook (idempotent); tracing starts inactive."""
    if _installed:
        return
    from repro.exp import runner as exp_runner
    from repro.exp.cache import ResultCache
    from repro.exp.runner import Runner
    from repro.interference.model import InterferenceModel
    from repro.memory.access import ChunkAccess
    from repro.runtime import executor as rt_executor
    from repro.runtime.executor import TaskloopExecutor
    from repro.runtime.runtime import OpenMPRuntime
    from repro.runtime.schedulers.base import Scheduler
    from repro.serve.arbiter import NodeArbiter
    from repro.serve.client import ServiceClient
    from repro.serve.federation.router import FederationRouter
    from repro.serve.server import SchedulingService
    from repro.sim.engine import Clock
    from repro.sim.incremental import IncrementalInterference
    from repro.workloads.base import Application

    # every scheduler class must be imported before the subclass walk
    import repro.core.scheduler  # noqa: F401
    import repro.runtime.schedulers  # noqa: F401

    # -- simulation: runtime, core, workloads, interference, memory, sim --
    _patch(OpenMPRuntime, "run_application",
           _span_sync("runtime.run", OpenMPRuntime.run_application, None))
    _patch(TaskloopExecutor, "run",
           _span_sync("runtime.taskloop", TaskloopExecutor.run, _count_tasks))
    for cls in _subclasses(Scheduler):
        for method in ("plan", "record"):
            if method in cls.__dict__:
                _patch(cls, method,
                       _span_sync(f"core.{method}", cls.__dict__[method], None))
    for cls in _subclasses(Application):
        if "setup" in cls.__dict__:
            _patch(cls, "setup",
                   _span_sync("workloads.setup", cls.__dict__["setup"], None))
    for cls in (InterferenceModel, IncrementalInterference):
        for method in ("slowdowns", "slowdowns_and_saturation"):
            _patch(cls, method, _fine_timed("slowdown", cls.__dict__[method]))
    _patch(rt_executor, "chunk_access",
           _fine_timed("memory.access", rt_executor.chunk_access))
    _patch(ChunkAccess, "commit", _fine_timed("memory.access", ChunkAccess.commit))
    _patch(Clock, "advance", _fine_counted("sim.step", Clock.advance))

    # -- experiment layer --------------------------------------------------
    _patch(exp_runner, "execute_spec",
           _span_sync("exp.execute_spec", exp_runner.execute_spec, None))
    _patch(ResultCache, "get", _span_sync("exp.cache.get", ResultCache.get, _cache_hit))
    _patch(ResultCache, "put", _span_sync("exp.cache.put", ResultCache.put, None))
    _patch(Runner, "job_specs",
           _span_sync("exp.job_specs", Runner.job_specs, _job_specs))
    _patch(Runner, "run_specs", _wrap_run_specs(Runner.run_specs))

    # -- serving -------------------------------------------------------------
    _patch(ServiceClient, "submit",
           _span_async("serve.client.submit", ServiceClient.submit, _client_submit))
    _patch(ServiceClient, "status",
           _span_async("serve.client.status", ServiceClient.status, None))
    _patch(SchedulingService, "submit",
           _span_sync("serve.submit", SchedulingService.submit, _service_submit))
    _patch(NodeArbiter, "acquire",
           _span_async("serve.lease_wait", NodeArbiter.acquire, _lease_acquired))
    _patch(FederationRouter, "submit",
           _span_async("federation.submit", FederationRouter.submit, _router_submit))
    _patch(FederationRouter, "status",
           _span_sync("federation.status", FederationRouter.status, _router_status))
    _patch(FederationRouter, "pump_detection",
           _span_async("federation.pump", FederationRouter.pump_detection, None))
    # a hook whose target turned from sync to async (or back) would
    # silently stop timing: refuse to trace rather than mismeasure
    for owner, attr, original in _installed:
        if asyncio.iscoroutinefunction(original) != asyncio.iscoroutinefunction(
            getattr(owner, attr)
        ):
            raise RuntimeError(f"hook {owner.__name__}.{attr} changed kind")


def tag_service(service: Any, tag: str) -> None:
    """Name a service (and its arbiter) for request-id resolution."""
    service._perfbench_tag = tag
    service.arbiter._perfbench_tag = tag


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def write_spans(path: Path, tracer: Tracer, meta: dict[str, Any]) -> Path:
    """Write every span (with self time) as one JSON document."""
    kids = tracer.children()
    index = {id(span): i for i, span in enumerate(tracer.spans)}
    origin = min((s.start for s in tracer.spans), default=0.0)
    rows = []
    for i, span in enumerate(tracer.spans):
        row: dict[str, Any] = {
            "id": i,
            "name": span.name,
            "start_s": span.start - origin,
            "end_s": span.end - origin,
            "self_s": tracer.self_time(span, kids),
            "parent": index.get(id(span.parent)) if span.parent is not None else None,
            "request": tracer.resolve(span.request),
            "thread": "main" if span.thread == tracer.main_thread else f"t{span.thread:x}",
        }
        if span.fine:
            row["fine"] = {k: {"calls": int(c), "busy_s": b} for k, (c, b) in span.fine.items()}
        if span.counts:
            row["counts"] = dict(span.counts)
        rows.append(row)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"meta": meta, "spans": rows}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return path
