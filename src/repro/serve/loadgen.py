"""Load generator: ``python -m repro.serve.loadgen [options]``.

Drives open- or closed-loop job traffic against a running scheduling
service and reports client-side latency plus the server's own metrics
snapshot.

* **closed loop** (default): ``--clients N`` concurrent tenants, each
  submitting its next job as soon as the previous one finishes, for
  ``--jobs-per-client`` jobs — the classic saturation benchmark;
* **open loop**: jobs arrive at ``--rate`` jobs/second regardless of
  completions (exponential inter-arrivals from a seeded RNG), measuring
  behaviour under overload where typed ``queue_full`` rejections are part
  of the expected outcome.

``--self-host`` starts a service in-process on an ephemeral port first,
so a one-line demo needs no separate server::

    python -m repro.serve.loadgen --self-host --machine small \
        --clients 3 --jobs-per-client 4 --nodes 2 --seeds 1 --timesteps 5

Chaos mode: ``--fault-spec`` injects a seeded, deterministic
:class:`~repro.serve.faults.FaultPlan` — worker crashes, transient runner
errors and deadline hangs inside the (necessarily ``--self-host``)
service, client disconnects driven from this side of the wire::

    python -m repro.serve.loadgen --self-host --machine small \
        --clients 3 --jobs-per-client 4 --timesteps 3 \
        --fault-spec "crash=0.2,transient=0.2,deadline=0.1,disconnect=0.2" \
        --fault-seed 7 --deadline-s 30 --retry-submit 4

Under a fault plan, failed jobs are an expected outcome; the exit code
instead asserts the recovery invariants — conservation of every submitted
job and zero leaked leases after drain.

Exit codes: 0 on success, 1 when a job failed (or, under a fault plan, a
recovery invariant broke), 2 on a bad flag value — a usage error raised
before any service starts, never a traceback.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.serve.client import ServiceClient
from repro.serve.faults import FaultKind, FaultPlan
from repro.serve.metrics import percentile
from repro.serve.protocol import AdmissionRejected, JobRequest
from repro.sim.rng import pyrandom, stream
from repro.workloads.registry import PAPER_ORDER

if TYPE_CHECKING:  # pragma: no cover - the server loads only for --self-host
    from repro.serve.server import SchedulingService

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Open/closed-loop traffic generator for the scheduling service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7077)
    parser.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="endpoint to drive; repeat to spread clients round-robin over "
        "several servers (or federation routers); overrides --host/--port",
    )
    parser.add_argument(
        "--self-host",
        action="store_true",
        help="start an in-process service on an ephemeral port and drive that",
    )
    parser.add_argument("--machine", default="small",
                        help="machine preset for --self-host (default: small)")
    parser.add_argument("--queue-capacity", type=int, default=16,
                        help="admission queue size for --self-host")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--clients", type=int, default=3, help="concurrent tenants")
    parser.add_argument("--jobs-per-client", type=int, default=4)
    parser.add_argument("--rate", type=float, default=4.0,
                        help="open-loop arrival rate, jobs/second")
    parser.add_argument("--benchmark", default="matmul", choices=PAPER_ORDER)
    parser.add_argument("--scheduler", default="ilan")
    parser.add_argument("--nodes", type=int, default=1,
                        help="NUMA nodes each job leases")
    parser.add_argument("--seeds", type=int, default=1, help="repetitions per job")
    parser.add_argument("--timesteps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0, help="arrival-process RNG seed")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON instead of text")
    chaos = parser.add_argument_group("chaos (fault injection & recovery)")
    chaos.add_argument(
        "--fault-spec", default=None, metavar="SPEC",
        help='seeded fault plan, e.g. "crash=0.2,transient=0.3,deadline=0.1,'
             'disconnect=0.2"; server-side kinds need --self-host',
    )
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="fault plan RNG seed (default 0)")
    chaos.add_argument("--fault-attempts", type=int, default=1,
                       help="how many initial attempts of a faulted job the "
                            "fault hits (default 1)")
    chaos.add_argument("--deadline-s", type=float, default=None,
                       help="per-job running-time deadline; required for "
                            "deadline faults to fire")
    chaos.add_argument("--max-attempts", type=int, default=3,
                       help="service attempt budget per job for --self-host")
    chaos.add_argument("--retry-submit", type=int, default=0, metavar="N",
                       help="client-side submit retries (exponential backoff "
                            "+ full jitter) on queue_full/connection errors")
    return parser


def _parse_endpoints(args: argparse.Namespace) -> list[tuple[str, int]]:
    """The endpoints to drive: ``--connect`` list or the single host/port."""
    if not args.connect:
        return [(args.host, args.port)]
    if args.self_host:
        raise ValueError(
            "--connect and --self-host are mutually exclusive: --connect "
            "drives already-running servers, --self-host starts its own"
        )
    endpoints: list[tuple[str, int]] = []
    for spec in args.connect:
        host, sep, port_text = spec.rpartition(":")
        if not sep or not host:
            raise ValueError(f"--connect wants HOST:PORT, got {spec!r}")
        try:
            endpoints.append((host, int(port_text)))
        except ValueError:
            raise ValueError(
                f"--connect port must be an integer, got {port_text!r}"
            ) from None
    return endpoints


def _request(args: argparse.Namespace, tenant: str) -> JobRequest:
    return JobRequest(
        benchmark=args.benchmark,
        scheduler=args.scheduler,
        seeds=args.seeds,
        timesteps=args.timesteps,
        nodes=args.nodes,
        tenant=tenant,
        deadline_s=args.deadline_s,
    )


async def _submit(
    client: ServiceClient, args: argparse.Namespace, tenant: str, rng: random.Random
) -> str:
    if args.retry_submit > 0:
        return await client.submit_with_retry(
            _request(args, tenant), max_retries=args.retry_submit, rng=rng
        )
    return await client.submit(_request(args, tenant))


async def _await_job(
    client: ServiceClient, job_id: str, plan: FaultPlan | None, out: dict
) -> dict:
    """Wait for the job, injecting a mid-wait client disconnect if planned."""
    if plan is not None and plan.should_inject(job_id, FaultKind.CLIENT_DISCONNECT, 0):
        plan.record_injection(FaultKind.CLIENT_DISCONNECT)
        await asyncio.sleep(0.01)  # be genuinely mid-wait when we drop
        await client.reconnect()
        out["disconnects"] += 1
    return await client.wait(job_id)


def _record(out: dict, endpoint: str, latency: float, state: str) -> None:
    out["latencies"].append(latency)
    out["states"].append(state)
    per = out["by_endpoint"][endpoint]
    per["latencies"].append(latency)
    per["states"].append(state)


async def _closed_client(
    args: argparse.Namespace, host: str, port: int, tenant: str, out: dict,
    plan: FaultPlan | None,
) -> None:
    """One tenant: submit, wait for completion, repeat."""
    rng = pyrandom(args.seed, "serve.loadgen.retry", tenant)
    endpoint = f"{host}:{port}"
    async with await ServiceClient.connect(host, port) as client:
        for _ in range(args.jobs_per_client):
            t0 = time.monotonic()
            try:
                job_id = await _submit(client, args, tenant, rng)
            except AdmissionRejected as exc:
                out["rejected"].append(exc.code)
                continue
            job = await _await_job(client, job_id, plan, out)
            _record(out, endpoint, time.monotonic() - t0, job["state"])


async def _open_loop(
    args: argparse.Namespace, endpoints: list[tuple[str, int]], out: dict,
    plan: FaultPlan | None,
) -> None:
    """Poisson arrivals at --rate, round-robin across the endpoints."""
    rng = stream(args.seed, "serve.loadgen", "arrivals")
    retry_rng = pyrandom(args.seed, "serve.loadgen.retry", "open")
    total = args.clients * args.jobs_per_client
    waiters: list[asyncio.Task] = []

    async def _track(host: str, port: int, job_id: str, t0: float) -> None:
        async with await ServiceClient.connect(host, port) as client:
            job = await _await_job(client, job_id, plan, out)
            _record(out, f"{host}:{port}", time.monotonic() - t0, job["state"])

    submitters = [
        await ServiceClient.connect(host, port) for host, port in endpoints
    ]
    try:
        for i in range(total):
            tenant = f"tenant-{i % args.clients}"
            host, port = endpoints[i % len(endpoints)]
            try:
                t0 = time.monotonic()
                job_id = await _submit(
                    submitters[i % len(endpoints)], args, tenant, retry_rng
                )
                waiters.append(
                    asyncio.create_task(_track(host, port, job_id, t0))
                )
            except AdmissionRejected as exc:
                out["rejected"].append(exc.code)
            await asyncio.sleep(float(rng.exponential(1.0 / args.rate)))
    finally:
        for submitter in submitters:
            await submitter.close()
    if waiters:
        await asyncio.gather(*waiters)


def _build_plan(args: argparse.Namespace) -> FaultPlan | None:
    if args.fault_spec is None:
        return None
    plan = FaultPlan.from_spec(
        args.fault_spec, seed=args.fault_seed, fault_attempts=args.fault_attempts
    )
    server_kinds = set(plan.probabilities) - {FaultKind.CLIENT_DISCONNECT}
    if server_kinds and not args.self_host:
        raise ValueError(
            "--fault-spec with server-side kinds "
            f"({', '.join(sorted(k.value for k in server_kinds))}) requires "
            "--self-host: faults inject into the in-process service"
        )
    return plan


def _build_service(
    args: argparse.Namespace, plan: FaultPlan | None
) -> SchedulingService:
    """The ``--self-host`` service, built (not started) so that its own
    constructor validates the flags it consumes."""
    from repro.exp.cliopts import resolve_machine
    from repro.exp.runner import ExperimentConfig
    from repro.serve.server import SchedulingService

    return SchedulingService(
        resolve_machine(args.machine),
        config=ExperimentConfig.from_env(),
        queue_capacity=args.queue_capacity,
        fault_plan=plan,
        max_attempts=args.max_attempts,
        default_deadline_s=args.deadline_s,
    )


async def _run(
    args: argparse.Namespace,
    endpoints: list[tuple[str, int]],
    plan: FaultPlan | None,
    service: SchedulingService | None,
) -> dict:
    if service is not None:
        endpoints = [await service.start(args.host, 0)]

    labels = [f"{host}:{port}" for host, port in endpoints]
    out: dict = {
        "latencies": [],
        "states": [],
        "rejected": [],
        "disconnects": 0,
        "by_endpoint": {label: {"latencies": [], "states": []} for label in labels},
    }
    t0 = time.monotonic()
    if args.mode == "closed":
        # clients round-robin over the endpoints, tenant i -> endpoint i % N
        await asyncio.gather(
            *(
                _closed_client(
                    args, *endpoints[i % len(endpoints)], f"tenant-{i}", out, plan
                )
                for i in range(args.clients)
            )
        )
    else:
        await _open_loop(args, endpoints, out, plan)
    wall = time.monotonic() - t0

    servers: list[dict] = []
    for host, port in endpoints:
        async with await ServiceClient.connect(host, port) as client:
            servers.append(await client.metrics())
    if service is not None:
        servers = [await service.drain()]

    lat = out["latencies"]
    summary = {
        "mode": args.mode,
        "clients": args.clients,
        "wall_s": wall,
        "finished": len(lat),
        "completed": sum(1 for s in out["states"] if s == "completed"),
        "failed": sum(1 for s in out["states"] if s == "failed"),
        "rejected": len(out["rejected"]),
        "throughput_jps": len(lat) / wall if wall > 0 else 0.0,
        "latency_s": {
            "p50": percentile(lat, 50) if lat else None,
            "p95": percentile(lat, 95) if lat else None,
            "p99": percentile(lat, 99) if lat else None,
        },
        "endpoints": [
            _endpoint_summary(label, out["by_endpoint"][label]) for label in labels
        ],
        # back-compat: `server` stays the (first) endpoint's own snapshot
        "server": servers[0],
        "servers": servers,
    }
    if plan is not None:
        summary["faults"] = {
            "spec": plan.to_spec(),
            "seed": plan.seed,
            "injected": dict(plan.injected),
            "client_disconnects": out["disconnects"],
        }
    return summary


def _endpoint_summary(label: str, per: dict) -> dict:
    lat = per["latencies"]
    return {
        "endpoint": label,
        "finished": len(lat),
        "completed": sum(1 for s in per["states"] if s == "completed"),
        "failed": sum(1 for s in per["states"] if s == "failed"),
        "latency_s": {
            "p50": percentile(lat, 50) if lat else None,
            "p99": percentile(lat, 99) if lat else None,
        },
    }


def _print_text(summary: dict) -> None:
    lat = summary["latency_s"]
    print(
        f"{summary['mode']}-loop, {summary['clients']} client(s): "
        f"{summary['completed']} completed, {summary['failed']} failed, "
        f"{summary['rejected']} rejected in {summary['wall_s']:.2f}s "
        f"({summary['throughput_jps']:.2f} jobs/s)"
    )
    if lat["p50"] is not None:
        print(
            f"client latency: p50 {lat['p50']*1e3:.1f} ms, "
            f"p95 {lat['p95']*1e3:.1f} ms, p99 {lat['p99']*1e3:.1f} ms"
        )
    if len(summary["endpoints"]) > 1:
        for ep in summary["endpoints"]:
            ep_lat = ep["latency_s"]
            p50 = f"{ep_lat['p50']*1e3:.1f} ms" if ep_lat["p50"] is not None else "-"
            p99 = f"{ep_lat['p99']*1e3:.1f} ms" if ep_lat["p99"] is not None else "-"
            print(
                f"  {ep['endpoint']}: {ep['completed']} completed, "
                f"{ep['failed']} failed, p50 {p50}, p99 {p99}"
            )
    if "faults" in summary:
        faults = summary["faults"]
        recovery = summary["server"].get("recovery", {})
        print(
            f"chaos [{faults['spec']} seed={faults['seed']}]: "
            f"injected {faults['injected']}, "
            f"{faults['client_disconnects']} client disconnect(s)"
        )
        print(
            f"recovery: {recovery.get('requeued', 0)} requeued, "
            f"{recovery.get('retried', 0)} retried, "
            f"{recovery.get('deadline_exceeded', 0)} deadline-exceeded, "
            f"{recovery.get('leases_reclaimed', 0)} lease(s) reclaimed"
        )
    for metrics in summary["servers"]:
        _print_server(metrics)


def _print_server(metrics: dict) -> None:
    if "router" in metrics:  # a federation router's aggregated snapshot
        router = metrics["router"]
        fleet = metrics["fleet"]
        print(
            f"federation totals: {router['submitted']} submitted, "
            f"{router['job_states']['completed']} completed, "
            f"{router['migrations']} migration(s), "
            f"{router['shard_deaths']} shard death(s), "
            f"{len(fleet['alive'])}/{fleet['shards']} shard(s) alive"
        )
        return
    nodes = metrics["nodes"]
    print(f"server lease map at end: {nodes['leases']}")
    jobs = metrics["jobs"]
    print(
        f"server totals: {jobs['submitted']} submitted, {jobs['completed']} "
        f"completed, {jobs['rejected_total']} rejected, "
        f"throughput {jobs['throughput_jps']:.2f} jobs/s"
    )


def _jobs_conserved(jobs: dict) -> bool:
    return jobs["submitted"] == (
        jobs["completed"]
        + jobs["failed"]
        + jobs["active"]
        + jobs["queued"]
        + jobs.get("evicted", 0)
    )


def _server_conserved(metrics: dict) -> bool:
    """Job conservation for either snapshot shape (single server / federation)."""
    if "router" in metrics:
        return all(
            _jobs_conserved(shard["jobs"]) for shard in metrics["shards"].values()
        )
    return _jobs_conserved(metrics["jobs"])


def _server_leaked(metrics: dict) -> bool:
    """Any node lease still owned after drain (either snapshot shape)."""
    if "router" in metrics:
        return any(
            shard["service"]["draining"]
            and any(owner is not None for owner in shard["nodes"]["leases"].values())
            for shard in metrics["shards"].values()
        )
    if not metrics["service"]["draining"]:
        return False  # snapshot predates the drain: leases may be live
    return any(owner is not None for owner in metrics["nodes"]["leases"].values())


def _exit_code(summary: dict) -> int:
    conserved = all(_server_conserved(metrics) for metrics in summary["servers"])
    if "faults" in summary:
        # under chaos, failures are expected; the recovery invariants are not
        leaked = any(_server_leaked(metrics) for metrics in summary["servers"])
        return 0 if conserved and not leaked else 1
    return 0 if summary["failed"] == 0 and conserved else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.rate > 0:
            raise ValueError(f"--rate must be positive, got {args.rate}")
        endpoints = _parse_endpoints(args)
        plan = _build_plan(args)
        service = _build_service(args, plan) if args.self_host else None
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))  # a usage error (exit 2), not a traceback
    summary = asyncio.run(_run(args, endpoints, plan, service))
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        _print_text(summary)
    return _exit_code(summary)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
