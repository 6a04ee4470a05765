"""Per-layer metrics derived from one traced window.

Every workload reports every metric; a layer the workload does not
reach reports 0 (``campaign`` has no ``serve.*`` spans, ``fleet-hot``
simulates nothing in its window).  Which end-to-end metric each one
should move is tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

import statistics

from tracing import Span, Tracer

UNITS = {
    "runtime.run.count": "count",
    "runtime.run.busy_s": "s",
    "runtime.taskloop.count": "count",
    "runtime.taskloop.self_s": "s",
    "slowdown.count": "count",
    "slowdown.busy_s": "s",
    "sim.steps": "count",
    "sim.tasks": "count",
    "sim.tasks_per_step": "ratio",
    "core.plan.busy_s": "s",
    "core.record.busy_s": "s",
    "memory.access.busy_s": "s",
    "workloads.setup.busy_s": "s",
    "exp.simulated.count": "count",
    "exp.cache.get.count": "count",
    "exp.cache.get.busy_s": "s",
    "exp.cache.hit_frac": "ratio",
    "exp.cache.put.count": "count",
    "exp.cache.put.busy_s": "s",
    "serve.submit.rtt_p50_s": "s",
    "serve.status.rtt_p50_s": "s",
    "serve.polls_per_job": "count",
    "serve.poll_gap_p50_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.run_p50_s": "s",
    "serve.lease_wait.count": "count",
    "serve.lease_wait.busy_s": "s",
    "serve.runner.busy_s": "s",
    "serve.warm_start_frac": "ratio",
    "federation.submit.self_p50_s": "s",
    "federation.status.busy_s": "s",
    "federation.placements": "count",
    "federation.migrations": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, out, overhead: float) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    kids = tracer.children()

    def spans(name: str) -> list[Span]:
        return by_name.get(name, [])

    def busy(*names: str) -> float:
        return sum(s.duration for n in names for s in spans(n))

    fine: dict[str, list[float]] = {}
    for span in tracer.spans:
        for name, (calls, seconds) in (span.fine or {}).items():
            slot = fine.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += seconds
    for name, (calls, seconds) in tracer.loose.items():
        slot = fine.setdefault(name, [0, 0.0])
        slot[0] += calls
        slot[1] += seconds

    taskloops = spans("runtime.taskloop")
    steps = sum((s.fine or {}).get("sim.step", [0, 0.0])[0] for s in taskloops)
    tasks = sum((s.counts or {}).get("tasks", 0.0) for s in taskloops)
    gets = spans("exp.cache.get")
    hits = sum((s.counts or {}).get("hit", 0.0) for s in gets)

    served = [job for job in out.jobs if job.record is not None]
    finished = [job for job in served if job.record["finished_at"] is not None]
    status_calls = len(spans("serve.client.status"))
    router_self = [tracer.self_time(s, kids) for s in spans("federation.submit")]
    warm = out.extra.get("warm_starts", 0)
    cold = out.extra.get("cold_bootstraps", 0)

    return {
        "runtime.run.count": float(len(spans("runtime.run"))),
        "runtime.run.busy_s": busy("runtime.run"),
        "runtime.taskloop.count": float(len(taskloops)),
        "runtime.taskloop.self_s": sum(tracer.self_time(s, kids) for s in taskloops),
        "slowdown.count": float(fine.get("slowdown", [0, 0.0])[0]),
        "slowdown.busy_s": fine.get("slowdown", [0, 0.0])[1],
        "sim.steps": float(steps),
        "sim.tasks": float(tasks),
        "sim.tasks_per_step": _ratio(tasks, steps),
        "core.plan.busy_s": busy("core.plan"),
        "core.record.busy_s": busy("core.record"),
        "memory.access.busy_s": fine.get("memory.access", [0, 0.0])[1],
        "workloads.setup.busy_s": busy("workloads.setup"),
        "exp.simulated.count": float(len(spans("exp.execute_spec"))),
        "exp.cache.get.count": float(len(gets)),
        "exp.cache.get.busy_s": busy("exp.cache.get"),
        "exp.cache.hit_frac": _ratio(hits, len(gets)),
        "exp.cache.put.count": float(len(spans("exp.cache.put"))),
        "exp.cache.put.busy_s": busy("exp.cache.put"),
        "serve.submit.rtt_p50_s": _median([s.duration for s in spans("serve.client.submit")]),
        "serve.status.rtt_p50_s": _median([s.duration for s in spans("serve.client.status")]),
        "serve.polls_per_job": _ratio(status_calls, len(finished)),
        "serve.poll_gap_p50_s": _median([
            job.latency - (job.record["finished_at"] - job.record["submitted_at"])
            for job in finished
        ]),
        "serve.queue_wait_p50_s": _median([
            job.record["started_at"] - job.record["submitted_at"]
            for job in finished if job.record["started_at"] is not None
        ]),
        "serve.run_p50_s": _median([
            job.record["finished_at"] - job.record["started_at"]
            for job in finished if job.record["started_at"] is not None
        ]),
        "serve.lease_wait.count": float(len(spans("serve.lease_wait"))),
        "serve.lease_wait.busy_s": busy("serve.lease_wait"),
        "serve.runner.busy_s": sum(
            s.duration for s in spans("exp.run_specs") if s.thread != tracer.main_thread
        ),
        "serve.warm_start_frac": _ratio(warm, warm + cold),
        "federation.submit.self_p50_s": _median(router_self),
        "federation.status.busy_s": busy("federation.status", "federation.pump"),
        "federation.placements": float(out.extra.get("placements", 0)),
        "federation.migrations": float(out.extra.get("migrations", 0)),
        "trace.overhead_frac": overhead,
        "trace.spans": float(len(tracer.spans)),
    }
