"""Property-based tests for the self-healing federation.

Contracts under test, for *any* seeded join/crash/respawn sequence the
strategies can draw:

* fleet-wide job conservation — ``submitted == completed + failed +
  active + queued + evicted`` — holds on every shard incarnation
  (the dead epoch-0 corpse and its respawn are separate entries);
* every submitted job reaches a terminal state through the router, and
  no unfinished job stays attributed to a dead incarnation;
* zero leaked leases on any incarnation after the drain;
* replaying the same drawn seeds yields a byte-identical canonical
  report — detection, migration and respawn are pure functions of the
  seeds and the logical clock.  The replay property submits each job
  only once the previous one is terminal: a heartbeat archives a
  tenant's PTT checkpoint only if the tenant's job already finished on
  its executor thread, so with jobs in flight the archive depends on
  thread timing, not on the seeds.  The other two properties keep jobs
  in flight across the crash.

Each example runs a real (small) federation to a drained fixed point,
so ``max_examples`` stays deliberately low.
"""

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.topology.presets import dual_socket_small

seeds = st.integers(min_value=0, max_value=2**20)

# A drawn scenario: fleet size, workload, and the join/crash plan.
scenarios = st.fixed_dictionaries(
    {
        "shards": st.integers(min_value=2, max_value=3),
        "jobs": st.integers(min_value=4, max_value=8),
        "tenants": st.integers(min_value=2, max_value=4),
        "kill_index": st.integers(min_value=0, max_value=2),
        "kill_point": st.integers(min_value=1, max_value=4),
        "join_at": st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        "fault_seed": seeds,
        "ring_seed": seeds,
    }
)


def _config():
    return ExperimentConfig(
        seeds=1, timesteps=2, with_noise=False, jobs=1, cache_dir=None
    )


async def _run_scenario(params: dict, *, settle: bool = False) -> dict:
    """Drive one drawn join/crash/respawn sequence to its fixed point.

    With ``settle``, every job is waited for until terminal before the
    next is submitted, so the fleet's state at each heartbeat is a
    function of the seeds alone.

    Returns a canonical wall-clock-free report of everything observable:
    plan decisions, membership events, per-incarnation job counters,
    final job states and lease maps.
    """
    config = _config()
    n = params["shards"]
    kill_shard = f"shard-{params['kill_index'] % n}"
    shards = build_shards(
        n, dual_socket_small, config=config,
        queue_capacity=max(params["jobs"], 16), workers=1,
    )
    plan = ShardFaultPlan(0.0, seed=params["fault_seed"])
    plan.scheduled[kill_shard] = params["kill_point"]
    membership = Membership(heartbeat_every=1, suspect_after=1,
                            confirm_after=2)
    supervisor = ShardSupervisor(
        respawn_factory(dual_socket_small, config=config,
                        queue_capacity=max(params["jobs"], 16), workers=1),
        max_respawns=1,
    )
    router = FederationRouter(shards, seed=params["ring_seed"],
                              shard_fault_plan=plan,
                              membership=membership, supervisor=supervisor)
    await router.start()

    joined = False
    for i in range(params["jobs"]):
        if (params["join_at"] is not None and not joined
                and router.placements >= params["join_at"]):
            joiner = build_shard(
                f"shard-{n}", dual_socket_small, config=config,
                queue_capacity=max(params["jobs"], 16), workers=1,
            )
            await router.join_shard(joiner)
            joined = True
        job = await router.submit(
            JobRequest(benchmark="matmul", timesteps=2, nodes=1,
                       tenant=f"tenant-{i % params['tenants']}")
        )
        if settle:
            # router.wait pumps the failure detector, so a job stranded
            # on a silently crashed shard is recovered and finishes
            await asyncio.wait_for(router.wait(job.fed_id), timeout=120)
    snapshot = await router.drain()

    return {
        "params": dict(sorted(params.items())),
        "decisions": plan.decisions(),
        "crashed": list(plan.crashed),
        "dead": snapshot["fleet"]["dead"],
        "alive": snapshot["fleet"]["alive"],
        "membership": snapshot["membership"],
        "counters": {
            "placements": router.placements,
            "shard_deaths": router.shard_deaths,
            "requeued_jobs": router.requeued_jobs,
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
        "leases": {
            iid: shard["nodes"]["leases"]
            for iid, shard in snapshot["shards"].items()
        },
    }


@settings(max_examples=8, deadline=None)
@given(params=scenarios)
def test_any_sequence_conserves_jobs_and_leases(params):
    report = asyncio.run(_run_scenario(params))

    # Conservation per incarnation, dead corpses included.
    for iid, jobs in report["shard_jobs"].items():
        assert jobs["submitted"] == (
            jobs["completed"] + jobs["failed"] + jobs["active"]
            + jobs["queued"] + jobs["evicted"]
        ), (iid, jobs)

    # Every job terminal through the router; nothing in flight.
    states = report["job_states"]
    assert states["completed"] + states["failed"] == params["jobs"], states
    assert states["queued"] == 0 and states["running"] == 0, states

    # A job that finished on the victim before the silent crash may stay
    # attributed to the dead incarnation — unfinished work never does.
    stranded = [
        fed_id for fed_id, job in report["jobs"].items()
        if job["shard"] in report["dead"]
        and job["state"] not in ("completed", "failed")
    ]
    assert not stranded, stranded

    # No lease survives the drain on any incarnation, dead or alive.
    leaked = [
        (iid, node)
        for iid, leases in report["leases"].items()
        for node, owner in leases.items()
        if owner is not None
    ]
    assert not leaked, leaked


@settings(max_examples=8, deadline=None)
@given(params=scenarios)
def test_confirmed_deaths_always_respawn_within_budget(params):
    report = asyncio.run(_run_scenario(params))
    membership = report["membership"]

    # Detection is complete: by the end of the drain no live-looking
    # member backs a dead handle, so confirmed deaths == actual deaths.
    assert membership["deaths_confirmed"] == report["counters"]["shard_deaths"]

    if report["crashed"]:
        respawns = membership["respawns"] or {}
        assert respawns.get("respawns_total", 0) == len(report["crashed"])
        for shard_id in report["crashed"]:
            # The respawned incarnation rejoined at epoch 1 and is live.
            assert membership["epochs"].get(shard_id) == 1, membership["epochs"]
            assert shard_id in report["alive"], report["alive"]
            assert shard_id in report["dead"], report["dead"]

    # Warm migrations and drops partition the displaced tenants: every
    # migration-log entry is one or the other, never both, never silent.
    log = membership["migration_log"]
    completed = [e for e in log if e["to"] is not None]
    dropped = [e for e in log if e["to"] is None]
    assert len(completed) == membership["migrations_completed"]
    assert len(dropped) == membership["migrations_dropped"]


@settings(max_examples=4, deadline=None)
@given(params=scenarios)
def test_same_seed_replay_is_byte_identical(params):
    first = asyncio.run(_run_scenario(params, settle=True))
    second = asyncio.run(_run_scenario(params, settle=True))
    a = json.dumps(first, sort_keys=True).encode()
    b = json.dumps(second, sort_keys=True).encode()
    assert a == b, "same drawn scenario diverged across replays"
