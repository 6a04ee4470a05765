"""Measurement harness behind ``scripts/bench.py``.

Three metric families, one document (:mod:`repro.bench.schema`):

* **events/sec** — a seeded synthetic campaign simulated start-to-finish
  on the production (incremental) engine and on the reference engine it
  is checked against (:mod:`repro.runtime.reference`), on three machine
  scales: ``small`` (the 16-core dual-socket test machine), ``medium``
  (the paper's 64-core Zen 4) and ``large`` (a 1024-core, 64-node machine
  where the reference engine's per-step full recompute is most
  expensive).  The simulated results must be byte-identical across
  engines — the harness asserts it on every run, so a perf number can
  never come from a diverged simulation;
* **campaign wall time** — one cached experiment cell, cold (empty run
  cache) then warm (fully cached): the cache's reason to exist, measured;
* **service latency** — client-side p50/p99 from a short closed-loop
  load-generator run against an in-process scheduling service.

``quick`` mode measures the *same campaign shapes* with fewer repeats,
so quick (CI) documents are comparable with committed full ones.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.bench.schema import SCHEMA_VERSION, environment_fingerprint, validate
from repro.bench.timers import time_call
from repro.errors import BenchError
from repro.exp.runner import ExperimentConfig, Runner
from repro.runtime.reference import ReferenceRuntime
from repro.runtime.runtime import OpenMPRuntime
from repro.serve.loadgen import run_summary
from repro.topology.machine import GIB, MIB, MachineTopology
from repro.topology.presets import dual_socket_small, zen4_9354
from repro.workloads.base import Application
from repro.workloads.synthetic import make_synthetic

__all__ = ["run_benchmarks", "CAMPAIGN_SPECS", "CampaignSpec"]


def _large_machine() -> MachineTopology:
    """1024 cores over 64 NUMA nodes: the reference engine's worst case.

    Per simulation step the reference recomputes a (cores x nodes)
    contention penalty and scans every core for dispatch; the incremental
    engine touches only changed rows.  This scale is where that asymmetry
    is the paper-relevant headline number.
    """
    return MachineTopology.build(
        name="bench-large-1024",
        num_sockets=8,
        nodes_per_socket=8,
        ccds_per_node=2,
        cores_per_ccd=8,
        l3_bytes=32 * MIB,
        mem_bytes_per_node=32 * GIB,
        mem_bandwidth_per_node=40.0 * GIB,
    )


@dataclass(frozen=True)
class CampaignSpec:
    """One synthetic throughput campaign: a machine and a task volume."""

    name: str
    machine: Callable[[], MachineTopology]
    num_tasks: int
    timesteps: int
    region_mib: int

    def app(self) -> Application:
        return make_synthetic(
            name=f"bench-{self.name}",
            work_seconds=2.0,
            mem_frac=0.6,
            blocked_fraction=1.0,
            reuse=0.3,
            gamma=0.8,
            imbalance="clustered",
            imbalance_cv=0.35,
            num_tasks=self.num_tasks,
            total_iters=self.num_tasks * 8,
            region_mib=self.region_mib,
            timesteps=self.timesteps,
        )


CAMPAIGN_SPECS = (
    CampaignSpec("small", dual_socket_small, 256, 2, 256),
    CampaignSpec("medium", zen4_9354, 1024, 2, 512),
    CampaignSpec("large", _large_machine, 3072, 2, 2048),
)


# ----------------------------------------------------------------------
def _measure_events_per_sec(spec: CampaignSpec, repeats: int, seed: int) -> dict:
    """Both engines over one campaign; best-of-``repeats`` wall time."""
    entry: dict = {"environment": environment_fingerprint()}
    totals: dict[str, float] = {}
    events_seen: set[int] = set()
    for engine, runtime_type in (
        ("reference", ReferenceRuntime),
        ("incremental", OpenMPRuntime),
    ):
        app = spec.app()
        best_wall = float("inf")
        events = 0
        for _ in range(repeats):
            runtime = runtime_type(spec.machine(), "baseline", seed=seed)
            result, wall = time_call(lambda: runtime.run_application(app))
            events = sum(tl.tasks_executed for tl in result.taskloops)
            best_wall = min(best_wall, wall)
            totals[engine] = result.total_time
        if events <= 0 or best_wall <= 0:
            raise BenchError(
                f"campaign {spec.name!r}/{engine}: no events measured"
            )
        events_seen.add(events)
        entry[engine] = {
            "events": events,
            "wall_s": best_wall,
            "events_per_sec": events / best_wall,
            "repeats": repeats,
        }
    # the built-in differential check: a perf number from a simulation
    # that diverged between engines would be comparing different work
    if len(events_seen) != 1 or totals["reference"] != totals["incremental"]:
        raise BenchError(
            f"campaign {spec.name!r}: engines diverged "
            f"(events {sorted(events_seen)}, simulated times {totals})"
        )
    entry["speedup"] = (
        entry["incremental"]["events_per_sec"] / entry["reference"]["events_per_sec"]
    )
    return entry


def _measure_campaign_wall(quick: bool) -> dict:
    """One cached experiment cell, cold then warm."""
    seeds = 2 if quick else 3
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cfg = ExperimentConfig(
            seeds=seeds, timesteps=2, with_noise=True, cache_dir=cache_dir
        )
        topology = dual_socket_small()

        def one_campaign() -> None:
            Runner(cfg, topology=topology).cell("matmul", "ilan")

        _, cold_s = time_call(one_campaign)
        _, warm_s = time_call(one_campaign)
    return {
        "environment": environment_fingerprint(),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "runs": seeds,
    }


def _measure_service_latency(quick: bool, seed: int) -> dict:
    """Client p50/p99 from a short closed-loop loadgen run."""
    jobs_per_client = "2" if quick else "3"
    summary = run_summary([
        "--self-host",
        "--machine", "small",
        "--mode", "closed",
        "--clients", "2",
        "--jobs-per-client", jobs_per_client,
        "--benchmark", "matmul",
        "--scheduler", "ilan",
        "--nodes", "1",
        "--seeds", "1",
        "--timesteps", "2",
        "--seed", str(seed),
    ])
    latency = summary["latency_s"]
    if summary["finished"] < 1 or latency["p50"] is None or latency["p99"] is None:
        raise BenchError(
            f"load-generator run finished {summary['finished']} job(s); "
            "cannot report latency percentiles"
        )
    return {
        "environment": environment_fingerprint(),
        "jobs": summary["finished"],
        "p50": latency["p50"],
        "p99": latency["p99"],
        "throughput_jps": summary["throughput_jps"],
    }


# ----------------------------------------------------------------------
def run_benchmarks(
    *,
    mode: str = "full",
    seed: int = 0,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Measure everything; return a validated ``BENCH`` document."""
    if mode not in ("full", "quick"):
        raise BenchError(f"mode must be 'full' or 'quick', got {mode!r}")
    quick = mode == "quick"
    repeats = 1 if quick else 3

    def say(message: str) -> None:
        if log is not None:
            log(message)

    events_per_sec: dict[str, dict] = {}
    for spec in CAMPAIGN_SPECS:
        say(f"events/sec [{spec.name}]: {spec.num_tasks} tasks x "
            f"{spec.timesteps} timesteps, {repeats} repeat(s)...")
        entry = _measure_events_per_sec(spec, repeats, seed)
        say(
            f"  reference {entry['reference']['events_per_sec']:,.0f} ev/s, "
            f"incremental {entry['incremental']['events_per_sec']:,.0f} ev/s "
            f"({entry['speedup']:.2f}x)"
        )
        events_per_sec[spec.name] = entry

    say("campaign wall time: cold vs warm cache...")
    campaign_wall = _measure_campaign_wall(quick)
    say(f"  cold {campaign_wall['cold_s']:.2f}s, warm {campaign_wall['warm_s']:.2f}s")

    say("service latency: closed-loop loadgen...")
    service_latency = _measure_service_latency(quick, seed)
    say(
        f"  {service_latency['jobs']} jobs, p50 {service_latency['p50']*1e3:.0f} ms, "
        f"p99 {service_latency['p99']*1e3:.0f} ms"
    )

    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "seed": seed,
        "metrics": {
            "events_per_sec": events_per_sec,
            "campaign_wall_s": campaign_wall,
            "service_latency_s": service_latency,
        },
    }
    validate(doc)
    return doc
