"""End-to-end differential: a federated job returns what the runner computes.

For every job a fleet completes, the ``result`` on its wire record must
equal a direct ``Runner.run_specs`` over the same specs, rebuilt with
``Runner.job_specs`` from the job's request, the lease its final shard
granted (``lease_nodes``), the fleet's config and its topology preset.
Routing, orphan adoption, warm PTT migration and respawn may move a job
and change which nodes it leases; they must never change what that lease
computes.

Three fleets: a quiet one; one whose shards die with jobs in flight and
are confirmed and respawned; and one whose tenants settle, then migrate
warm when their home shard dies.  Every job runs a lease-aware scheduler
(``ilan`` / ``ilan-adaptive``), so the lease bits are part of each spec.
"""

import asyncio

from repro.exp.runner import ExperimentConfig, Runner
from repro.serve.federation import (
    FederationRouter,
    Membership,
    ShardFaultPlan,
    ShardSupervisor,
    build_shards,
    respawn_factory,
)
from repro.serve.protocol import JobRequest
from repro.topology.affinity import NodeMask
from repro.topology.presets import dual_socket_small

CONFIG = ExperimentConfig(
    seeds=1, timesteps=2, with_noise=False, jobs=1, cache_dir=None
)
SHARD_OPTIONS = dict(config=CONFIG, queue_capacity=32, workers=2)


def _request(i: int) -> JobRequest:
    return JobRequest(
        benchmark=("cg", "matmul")[i % 2],
        scheduler=("ilan", "ilan-adaptive")[(i // 4) % 2],
        timesteps=2,
        nodes=1 + (i // 3) % 2,
        tenant=f"tenant-{i % 4}",
    )


def _direct_result(runner: Runner, wire: dict) -> dict:
    """The summary a lone runner produces for the job's specs and lease."""
    request = JobRequest.from_wire(wire["request"])
    lease = NodeMask.from_indices(wire["lease_nodes"], runner.topology.num_nodes)
    specs = runner.job_specs(
        request.benchmark,
        request.scheduler,
        seeds=request.seeds,
        timesteps=request.timesteps,
        lease_bits=lease.bits,
    )
    runs = runner.run_specs(specs)
    times = [run.total_time for run in runs]
    return {
        "runs": len(runs),
        "total_time_mean_s": sum(times) / len(times),
        "total_time_min_s": min(times),
        "total_time_max_s": max(times),
        "weighted_avg_threads": sum(run.weighted_avg_threads for run in runs)
        / len(runs),
    }


def _assert_results_match(router: FederationRouter, submitted: int) -> None:
    runner = Runner(CONFIG, dual_socket_small())
    assert len(router.jobs) == submitted
    for fed_id in sorted(router.jobs):
        wire = router.status(fed_id)
        assert wire["state"] == "completed", (fed_id, wire["error"])
        assert wire["result"] == _direct_result(runner, wire), fed_id


async def _settle(router: FederationRouter) -> None:
    while True:
        states = router.job_states()
        if states["queued"] == states["running"] == 0:
            return
        await asyncio.sleep(0.01)


def test_quiet_fleet_results_match_the_runner():
    async def run():
        router = FederationRouter(
            build_shards(3, dual_socket_small, **SHARD_OPTIONS), seed=0
        )
        await router.start()
        for i in range(8):
            await router.submit(_request(i))
        await router.drain()
        assert router.shard_deaths == 0 and router.requeued_jobs == 0
        _assert_results_match(router, 8)

    asyncio.run(run())


def test_results_match_across_crashes_confirmation_and_respawn():
    async def run():
        # every first incarnation dies at its 3rd placement (the last live
        # shard excepted); respawns draw at probability 0 and stay up
        plan = ShardFaultPlan(0.0)
        plan.scheduled.update({f"shard-{i}": 3 for i in range(3)})
        supervisor = ShardSupervisor(
            respawn_factory(dual_socket_small, **SHARD_OPTIONS), max_respawns=1
        )
        router = FederationRouter(
            build_shards(3, dual_socket_small, **SHARD_OPTIONS),
            seed=0,
            shard_fault_plan=plan,
            membership=Membership(),
            supervisor=supervisor,
        )
        await router.start()
        for i in range(12):
            await router.submit(_request(i))
            await asyncio.sleep(0)  # let workers take jobs: crashes hit them in flight
        snapshot = await router.drain()
        membership = snapshot["membership"]
        assert router.shard_deaths >= 1 and router.requeued_jobs >= 1
        assert membership["deaths_confirmed"] == router.shard_deaths
        assert membership["respawns"]["respawns_total"] == router.shard_deaths
        _assert_results_match(router, 12)

    asyncio.run(run())


def test_results_match_after_a_warm_migration():
    async def run():
        plan = ShardFaultPlan(0.0)
        router = FederationRouter(
            build_shards(3, dual_socket_small, **SHARD_OPTIONS),
            seed=3,
            shard_fault_plan=plan,
            membership=Membership(heartbeat_every=1, suspect_after=1, confirm_after=2),
        )
        await router.start()
        for i in range(4):
            await router.submit(_request(i))
        await asyncio.wait_for(_settle(router), timeout=60)
        # two placements ahead on the victim's clock: a heartbeat archives
        # its settled tenants' checkpoints before it dies
        victim = router.affinity.home_of("tenant-0")
        plan.scheduled[victim] = router.shards[victim].placements + 2
        for i in range(4, 12):
            await router.submit(_request(i))
        snapshot = await router.drain()
        assert plan.crashed == [victim]
        assert snapshot["membership"]["migrations_completed"] >= 1
        _assert_results_match(router, 12)

    asyncio.run(run())
