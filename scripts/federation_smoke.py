"""Federation smoke: every shard-failure scenario, each replayed twice.

One script, one scenario table.  Every row builds a seeded fleet of
shards behind the consistent-hash router (each fleet runs the
logical-clock failure detector), runs it twice from scratch, and holds
both runs to the shared recovery invariants:

* conservation on every shard incarnation, dead or alive:
  ``submitted == completed + failed + active + queued + evicted``;
* every job terminal through the router, nothing left in flight;
* no unfinished job left on a dead incarnation;
* zero leaked leases after the drain, on every incarnation;
* per-incarnation strict FIFO: with one worker per shard, jobs start in
  exactly the order they entered that incarnation's queue (adoption and
  rebalance only ever touch the queue tail), joined and respawned
  incarnations included;
* the two runs produce byte-identical canonical reports.

The rows:

``chaos``  3 shards, 18 jobs; each shard dies with probability 0.6 at a
           seeded point in placements 2-6.  Default detector, no
           respawn: a confirmed-dead shard stays dead and its jobs
           requeue on the survivors.
``warm``   half of 24 jobs settle, a heartbeat archives every tenant's
           PTT checkpoint, then shard-1 dies; its tenants migrate warm
           (no tenant ever re-bootstraps), the supervisor respawns it
           at epoch 1, and a fourth shard joins live.
``early``  shard-1 dies at its first placement, before anything could
           checkpoint; the loss is tallied under ``migrations_dropped``
           and the dropped tenants bootstrap fresh on survivors.  Each
           job settles before the next is submitted: a heartbeat archives
           a tenant's checkpoint only once its job has finished on an
           executor thread, so with jobs in flight across the respawn
           the archive would follow thread timing, not the seeds.

The canonical report leaves out wall-clock fields (latencies,
throughput, uptime).  Exits 1 on any failed check.  Usage::

    PYTHONPATH=src python scripts/federation_smoke.py [--scenario chaos]
"""

import argparse
import asyncio
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.exp.cliopts import add_machine_argument, resolve_machine
from repro.exp.runner import ExperimentConfig
from repro.serve.federation import (
    FederationRouter,
    Membership,
    ShardFaultPlan,
    ShardSupervisor,
    build_shard,
    build_shards,
    respawn_factory,
)
from repro.serve.protocol import JobRequest

BENCHMARK = "matmul"
TIMESTEPS = 3
SHARDS = 3
TENANTS = 4
FAULT_SEED = 11
RING_SEED = 3
#: placements a seeded crash is drawn from (rows with a crash chance)
CRASH_WINDOW = (2, 6)


def check(cond: bool, message: str, failures: list) -> None:
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {message}")
    if not cond:
        failures.append(message)


# ----------------------------------------------------------------------
# per-row checks
# ----------------------------------------------------------------------
def verify_chaos(report: dict, row: "Scenario", label: str, failures: list) -> None:
    membership = report["membership"]
    check(report["counters"]["shard_deaths"] >= 1,
          f"{label}: the seeded plan crashed at least one shard "
          f"({report['crashed']})", failures)
    check(len(report["alive"]) >= 1,
          f"{label}: the fleet kept at least one live shard", failures)
    check(membership["deaths_confirmed"] == report["counters"]["shard_deaths"],
          f"{label}: the detector confirmed every death "
          f"({membership['heartbeats']} heartbeat(s))", failures)
    check(membership["respawns"] is None
          and all(epoch == 0 for epoch in membership["epochs"].values()),
          f"{label}: without a supervisor every dead shard stays dead",
          failures)
    hops = sum(len(j["placements"]) - 1 for j in report["jobs"].values())
    check(hops == report["counters"]["requeued_jobs"] > 0,
          f"{label}: dead shards' jobs were re-admitted elsewhere "
          f"({hops} requeue(s))", failures)
    check(all(j["shard"] not in report["dead"] for j in report["jobs"].values()),
          f"{label}: no job ended mapped to a dead shard", failures)


def verify_respawned(report: dict, row: "Scenario", label: str,
                     failures: list) -> None:
    membership = report["membership"]
    check(report["crashed"] == [row.victim],
          f"{label}: the scheduled crash fired ({report['crashed']})", failures)
    check(membership["deaths_confirmed"] >= 1,
          f"{label}: the failure detector confirmed the death "
          f"({membership['heartbeats']} heartbeat(s))", failures)
    check((membership["respawns"] or {}).get("respawns_total", 0) >= 1,
          f"{label}: the supervisor respawned the dead shard", failures)
    check(membership["epochs"].get(row.victim) == 1,
          f"{label}: {row.victim} is back at epoch 1", failures)
    check(row.victim in report["alive"] and row.victim in report["dead"],
          f"{label}: the respawn is alive and the dead epoch-0 incarnation "
          "is still accounted for", failures)


def verify_warm(report: dict, row: "Scenario", label: str, failures: list) -> None:
    membership = report["membership"]
    check(membership["migrations_completed"] >= 1,
          f"{label}: displaced tenants migrated warm "
          f"({membership['migrations_completed']} tenant(s))", failures)
    check(membership["migrations_dropped"] == 0,
          f"{label}: nothing was dropped (the crash came after checkpoints)",
          failures)
    for entry in membership["migration_log"]:
        target = entry["to"]
        pairs = (report["tenancy"].get(target, {})
                 .get("state", {}).get("generations", {}))
        check(any(key.startswith(entry["tenant"] + "/") for key in pairs),
              f"{label}: {entry['tenant']} state landed on {target} "
              f"({entry['docs']} doc(s))", failures)
    distinct_pairs = min(row.jobs, TENANTS)  # one benchmark per tenant
    cold = sum(t["cold_bootstraps"] for t in report["tenancy"].values())
    warm = sum(t["warm_starts"] for t in report["tenancy"].values())
    check(cold == distinct_pairs,
          f"{label}: fleet-wide cold bootstraps == {distinct_pairs} distinct "
          f"(tenant, benchmark) pairs; migrated tenants never re-bootstrap "
          f"(cold={cold}, warm={warm})", failures)
    check(membership["detector"]["counters"]["joins"] >= SHARDS + 2,
          f"{label}: live join and respawn rejoin both went through the "
          "membership join path", failures)


def verify_early(report: dict, row: "Scenario", label: str, failures: list) -> None:
    membership = report["membership"]
    check(membership["migrations_dropped"] >= 1,
          f"{label}: the pre-checkpoint crash was tallied as dropped "
          f"({membership['migrations_dropped']} tenant(s))", failures)
    check(membership["migrations_completed"] == 0,
          f"{label}: nothing could migrate warm (no checkpoint existed)",
          failures)
    dropped = [e["tenant"] for e in membership["migration_log"]
               if e["to"] is None]
    alive_pairs = {
        key
        for iid, t in report["tenancy"].items()
        if iid not in report["dead"]
        for key in t.get("state", {}).get("generations", {})
    }
    check(all(any(key.startswith(t + "/") for key in alive_pairs)
              for t in dropped),
          f"{label}: every dropped tenant bootstrapped fresh on a survivor "
          f"({dropped})", failures)


# ----------------------------------------------------------------------
# the scenario table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    about: str
    checks: tuple[Callable[..., None], ...]
    jobs: int = 18
    #: every shard's seeded chance to crash, somewhere in CRASH_WINDOW
    shard_crash: float = 0.0
    #: a shard with a scheduled crash: at its first placement, or two
    #: placements after the first half settled (`settle="half"`)
    victim: str | None = None
    #: "none": jobs stay in flight; "half": the first half of the jobs
    #: settle before the rest; "each": every job settles before the next
    settle: str = "none"
    #: failure-detector thresholds; empty keeps the router's defaults
    detector: dict = field(default_factory=dict)
    respawn: int | None = None
    #: router placements before one extra shard joins live
    join_at: int | None = None


SCENARIOS = {
    "chaos": Scenario(
        "seeded crashes on every shard, default detector, no respawn",
        checks=(verify_chaos,), shard_crash=0.6,
    ),
    "warm": Scenario(
        "settle, checkpoint, kill shard-1; warm migration, respawn, live join",
        checks=(verify_respawned, verify_warm),
        jobs=24, victim="shard-1", settle="half", respawn=1, join_at=12,
        detector=dict(heartbeat_every=1, suspect_after=1, confirm_after=2),
    ),
    "early": Scenario(
        "kill shard-1 before the first checkpoint; the loss is tallied",
        checks=(verify_respawned, verify_early),
        jobs=24, victim="shard-1", settle="each", respawn=1,
        detector=dict(heartbeat_every=1, suspect_after=1, confirm_after=2),
    ),
}


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def spy_on_starts(shard, starts: dict):
    """Record the order jobs start (acquire a lease) on this incarnation.

    The FIFO witness: with one worker per shard, the start order must be
    the local admission order (local job ids are assigned as jobs enter
    a shard's queue, and eviction only removes the newest).
    """
    seq = starts.setdefault(shard.instance_id, [])
    arbiter = shard.service.arbiter
    real_acquire = arbiter.acquire

    async def acquire(job_id, nodes_wanted, preferred=None):
        seq.append(job_id)
        return await real_acquire(job_id, nodes_wanted, preferred=preferred)

    arbiter.acquire = acquire
    return shard


async def settle(router: FederationRouter) -> None:
    """Wait (real time, never reported) until nothing is in flight.

    ``router.wait`` pumps the failure detector for a job stranded on a
    crashed shard, exactly as a client's wait would.  The report holds
    only the deterministic fixed point, never the waiting itself.
    """
    for fed_id in list(router.jobs):
        await router.wait(fed_id)


async def run_scenario(row: Scenario, machine: str) -> dict:
    """One full scenario; returns a canonical (wall-clock-free) report."""
    def topology():
        return resolve_machine(machine)

    recipe = dict(
        config=ExperimentConfig(seeds=1, timesteps=TIMESTEPS, with_noise=False,
                                jobs=1, cache_dir=None),
        queue_capacity=max(row.jobs, 16),
        workers=1,  # one worker per shard keeps start order == FIFO
    )
    starts: dict[str, list[str]] = {}
    shards = [spy_on_starts(s, starts)
              for s in build_shards(SHARDS, topology, **recipe)]
    supervisor = None
    if row.respawn is not None:
        factory = respawn_factory(topology, **recipe)
        supervisor = ShardSupervisor(
            lambda shard_id, epoch: spy_on_starts(factory(shard_id, epoch), starts),
            max_respawns=row.respawn,
        )
    lo, hi = CRASH_WINDOW
    plan = ShardFaultPlan(row.shard_crash, seed=FAULT_SEED,
                          min_placements=lo, max_placements=hi)
    router = FederationRouter(
        shards, seed=RING_SEED, shard_fault_plan=plan,
        membership=Membership(**row.detector), supervisor=supervisor,
    )
    await router.start()

    def job(i: int) -> JobRequest:
        return JobRequest(benchmark=BENCHMARK, timesteps=TIMESTEPS, nodes=1,
                          tenant=f"tenant-{i % TENANTS}")

    first = 0
    if row.settle == "half":
        first = row.jobs // 2
        for i in range(first):
            await router.submit(job(i))
        await settle(router)
        # two placements ahead: the first one's heartbeat archives the
        # victim's settled checkpoints, the second kills it
        plan.scheduled[row.victim] = router.shards[row.victim].placements + 2
    elif row.victim is not None:
        plan.scheduled[row.victim] = 1
    joiner = f"shard-{SHARDS}"
    for i in range(first, row.jobs):
        if (row.join_at is not None and joiner not in router.shards
                and router.placements >= row.join_at):
            await router.join_shard(
                spy_on_starts(build_shard(joiner, topology, **recipe), starts))
        await router.submit(job(i))
        if row.settle == "each":
            await settle(router)
    snapshot = await router.drain()

    return {
        "decisions": plan.decisions(),
        "crashed": list(plan.crashed),
        "dead": snapshot["fleet"]["dead"],
        "alive": snapshot["fleet"]["alive"],
        "membership": snapshot["membership"],
        "counters": {
            "placements": router.placements,
            "failover_placements": router.failover_placements,
            "shard_deaths": router.shard_deaths,
            "requeued_jobs": router.requeued_jobs,
            "rebalanced_tenants": router.rebalanced_tenants,
        },
        "job_states": snapshot["router"]["job_states"],
        "jobs": {
            fed_id: {
                "tenant": job["tenant"],
                "shard": job["shard"],
                "placements": job["placements"],
                "state": job["state"],
            }
            for fed_id, job in snapshot["jobs"].items()
        },
        "shard_jobs": {
            iid: {
                key: value
                for key, value in shard["jobs"].items()
                if key not in ("latency", "throughput_jps")  # wall-clock
            }
            for iid, shard in snapshot["shards"].items()
        },
        "tenancy": {
            iid: shard["tenancy"] for iid, shard in snapshot["shards"].items()
        },
        "leases": {
            iid: shard["nodes"]["leases"]
            for iid, shard in snapshot["shards"].items()
        },
        "starts": {iid: list(seq) for iid, seq in sorted(starts.items())},
    }


# ----------------------------------------------------------------------
# shared checks
# ----------------------------------------------------------------------
def verify_common(report: dict, row: Scenario, label: str, failures: list) -> None:
    conserved = all(
        jobs["submitted"] == (jobs["completed"] + jobs["failed"]
                              + jobs["active"] + jobs["queued"]
                              + jobs["evicted"])
        for jobs in report["shard_jobs"].values()
    )
    check(conserved,
          f"{label}: conservation holds on every incarnation "
          f"({len(report['shard_jobs'])} instance snapshots)", failures)

    states = report["job_states"]
    check(states["completed"] + states["failed"] == row.jobs,
          f"{label}: all {row.jobs} jobs terminal through the router "
          f"({states['completed']} completed, {states['failed']} failed)",
          failures)
    check(states["queued"] == states["running"] == 0,
          f"{label}: the federation converged (nothing in flight)", failures)
    # a job that *completed* on a shard before its silent crash stays
    # attributed to the dead incarnation; only unfinished work must move
    stranded = [
        fed_id for fed_id, j in report["jobs"].items()
        if j["shard"] in report["dead"]
        and j["state"] not in ("completed", "failed")
    ]
    check(not stranded,
          f"{label}: no unfinished job left on a dead incarnation", failures)

    leaked = [
        (iid, node)
        for iid, leases in report["leases"].items()
        for node, owner in leases.items()
        if owner is not None
    ]
    check(not leaked, f"{label}: zero leaked leases across "
          f"{len(report['leases'])} incarnation lease maps", failures)

    fifo = all(
        seq == sorted(seq, key=lambda job_id: int(job_id.split("-")[1]))
        for seq in report["starts"].values()
    )
    check(fifo, f"{label}: per-incarnation strict FIFO held (start order == "
          f"admission order on {len(report['starts'])} incarnations)", failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--scenario", action="append", choices=sorted(SCENARIOS),
                        help="run only this row (repeatable; default: every row)")
    add_machine_argument(parser, default="small")
    args = parser.parse_args(argv)

    failures: list = []
    for name in args.scenario or list(SCENARIOS):
        row = SCENARIOS[name]
        print(f"-- {name}: {row.about}")
        reports = []
        for attempt in (1, 2):
            report = asyncio.run(run_scenario(row, args.machine))
            label = f"{name} run {attempt}"
            verify_common(report, row, label, failures)
            for extra in row.checks:
                extra(report, row, label, failures)
            reports.append(json.dumps(report, sort_keys=True).encode())
        check(reports[0] == reports[1],
              f"{name}: the two seeded runs are byte-identical "
              f"({len(reports[0])} bytes of canonical report)", failures)

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nfederation smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
