"""Tests for the federation tier: ring placement, affinity, shard death,
saturation rebalance, the wire front-end, and seeded reproducibility.

The scenarios mirror the single-machine service suite one level up:
N in-process shards behind a router, driven both directly (router API)
and over TCP (the federation speaks the same newline-JSON protocol).
"""

import asyncio
import json

import pytest

from repro.exp.runner import ExperimentConfig
from repro.serve.client import ServiceClient
from repro.serve.federation import (
    AffinityPolicy,
    FederationRouter,
    FederationService,
    ShardFaultPlan,
    build_shards,
    shard_fault_seed,
)
from repro.serve.protocol import AdmissionRejected, JobRequest, ProtocolError
from repro.serve.server import SchedulingService
from repro.topology.presets import dual_socket_small

TIMEOUT = 60


def _fast_config(**overrides):
    base = dict(seeds=1, timesteps=3, with_noise=False, jobs=1, cache_dir=None)
    base.update(overrides)
    return ExperimentConfig(**base)


def _fleet(count=3, **kwargs):
    kwargs.setdefault("config", _fast_config())
    kwargs.setdefault("queue_capacity", 64)
    kwargs.setdefault("workers", 1)
    return build_shards(count, dual_socket_small, **kwargs)


def _request(tenant, **overrides):
    base = dict(benchmark="cg", seeds=1, timesteps=3, tenant=tenant)
    base.update(overrides)
    return JobRequest(**base)


def _assert_conserved(snapshot):
    for shard_id, shard in snapshot["shards"].items():
        jobs = shard["jobs"]
        assert jobs["submitted"] == (
            jobs["completed"] + jobs["failed"] + jobs["active"]
            + jobs["queued"] + jobs["evicted"]
        ), (shard_id, jobs)


# ----------------------------------------------------------------------
# placement: ring + affinity
# ----------------------------------------------------------------------
def test_placement_is_deterministic_and_tenant_sticky():
    async def run():
        router = FederationRouter(_fleet(), seed=7)
        jobs = [await router.submit(_request(f"t{i % 4}")) for i in range(12)]
        # a tenant's later jobs land on the shard of its first placement
        first = {}
        for job in jobs:
            first.setdefault(job.tenant, job.shard_id)
            assert job.shard_id == first[job.tenant]
        assert router.placements == 12
        assert router.failover_placements == 0
        # the home matches the ring owner: nothing was saturated or dead
        for tenant, home in first.items():
            assert router.ring.owner(tenant) == home
        await router.start()
        await router.drain()
        return [job.shard_id for job in jobs]

    assert asyncio.run(run()) == asyncio.run(run())


def test_saturated_home_is_demoted_but_still_beats_rejection():
    async def run():
        router = FederationRouter(_fleet(3), seed=0, high_water=2)
        # pile the hot tenant past the mark without running workers
        jobs = [await router.submit(_request("hot")) for _ in range(8)]
        shards_used = {job.shard_id for job in jobs}
        assert len(shards_used) == 3, "saturation must spread the hot tenant"
        await router.start()
        await router.drain()

    asyncio.run(run())


def test_fleet_wide_queue_full_reports_summed_capacity():
    async def run():
        router = FederationRouter(_fleet(2, queue_capacity=2), seed=0)
        for i in range(4):
            await router.submit(_request(f"t{i}"))
        with pytest.raises(AdmissionRejected) as excinfo:
            await router.submit(_request("overflow"))
        assert excinfo.value.code == "queue_full"
        assert excinfo.value.capacity == 4
        assert excinfo.value.depth == 4

    asyncio.run(run())


def test_unknown_benchmark_rejected_without_consuming_an_id():
    async def run():
        router = FederationRouter(_fleet(2), seed=0)
        with pytest.raises(ProtocolError):
            await router.submit(_request("t0", benchmark="nope"))
        assert router.placements == 0
        job = await router.submit(_request("t0"))
        assert job.fed_id == "fed-00001"

    asyncio.run(run())


# ----------------------------------------------------------------------
# shard death and recovery
# ----------------------------------------------------------------------
def test_shard_crash_requeues_orphans_and_conserves_jobs():
    async def run():
        plan = ShardFaultPlan(1.0, seed=3, min_placements=2, max_placements=2)
        router = FederationRouter(_fleet(3), seed=0, shard_fault_plan=plan)
        await router.start()
        for i in range(12):
            await router.submit(_request(f"t{i % 4}"))
        await router.drain()
        snapshot = router.metrics_snapshot()
        assert router.shard_deaths >= 1
        assert snapshot["fleet"]["dead"]
        # every submission reached a terminal state despite the deaths
        states = snapshot["router"]["job_states"]
        assert states["completed"] + states["failed"] == 12
        assert states["queued"] == states["running"] == 0
        _assert_conserved(snapshot)
        # dead shards hold no leases
        for shard_id in snapshot["fleet"]["dead"]:
            leases = snapshot["shards"][shard_id]["nodes"]["leases"]
            assert all(owner is None for owner in leases.values())
        # requeued jobs kept their fed ids and grew their placement chains
        moved = [j for j in router.jobs.values() if j.migrations > 0]
        assert moved
        for job in moved:
            assert job.placements[0] in snapshot["fleet"]["dead"]
            assert job.shard_id not in snapshot["fleet"]["dead"]
        return snapshot

    asyncio.run(run())


def test_last_live_shard_never_crashes():
    async def run():
        # every shard is fated to die at its first placement; the router
        # must still keep one alive to conserve the work
        plan = ShardFaultPlan(1.0, seed=0, min_placements=1, max_placements=1)
        router = FederationRouter(_fleet(3), seed=0, shard_fault_plan=plan)
        await router.start()
        for i in range(6):
            await router.submit(_request(f"t{i}"))
        await router.drain()
        assert len(router.live_shards) == 1
        states = router.job_states()
        assert states["completed"] + states["failed"] == 6

    asyncio.run(run())


def test_concurrent_crashes_never_take_down_the_last_shard():
    async def run():
        # both shards die at their first placement; two concurrent
        # submissions each hit one while the other's crash is in progress
        plan = ShardFaultPlan(0.0)
        plan.scheduled.update({"shard-0": 1, "shard-1": 1})
        router = FederationRouter(_fleet(2), seed=0, shard_fault_plan=plan)
        await router.start()
        owners = {}
        for i in range(64):
            owners.setdefault(router.ring.owner(f"t{i}"), f"t{i}")
        await asyncio.gather(
            router.submit(_request(owners["shard-0"])),
            router.submit(_request(owners["shard-1"])),
        )
        assert router.shard_deaths == 1
        assert len(router.live_shards) == 1
        await router.drain()
        states = router.job_states()
        assert states["completed"] + states["failed"] == 2

    asyncio.run(run())


def test_crash_forgets_affinity_homes():
    async def run():
        plan = ShardFaultPlan(1.0, seed=1, min_placements=3, max_placements=3)
        router = FederationRouter(_fleet(3), seed=0, shard_fault_plan=plan)
        await router.start()
        for i in range(9):
            await router.submit(_request(f"t{i % 3}"))
        dead = {s.shard_id for s in router.shards.values() if not s.alive}
        assert dead
        # the router forgets a dead shard's homes once the detector
        # confirms the death, not at the (silent) crash itself
        for _ in range(router.membership.confirm_after):
            await router.pump_detection()
        assert router.membership.deaths_confirmed == router.shard_deaths
        for home in router.affinity.homes().values():
            assert home not in dead
        await router.drain()

    asyncio.run(run())


# ----------------------------------------------------------------------
# saturation rebalance (migration)
# ----------------------------------------------------------------------
def test_rebalance_sheds_youngest_and_preserves_fifo_head():
    async def run():
        router = FederationRouter(_fleet(3), seed=0)
        # workers not started: depths are fully controlled
        for _ in range(10):
            await router.submit(_request("hot"))
        home = router.affinity.home_of("hot")
        deep = router.shards[home]
        oldest_local = deep.service.admission._items[0].job_id
        assert deep.depth == 10
        # arm the mark; the next placement's fleet scan must shed
        router.high_water = 3
        await router.submit(_request("hot"))
        assert router.migrations > 0
        assert all(s.depth <= 10 for s in router.live_shards)
        # strict FIFO: the deep shard kept its oldest waiter at the head
        assert deep.service.admission._items[0].job_id == oldest_local
        # evicted jobs kept stable fed ids, now mapped to other shards
        moved = [j for j in router.jobs.values() if j.migrations > 0]
        assert len(moved) == router.migrations
        for job in moved:
            assert job.placements[0] == home
            assert job.shard_id != home
        await router.start()
        await router.drain()
        snapshot = router.metrics_snapshot()
        states = snapshot["router"]["job_states"]
        assert states["completed"] == 11
        _assert_conserved(snapshot)

    asyncio.run(run())


def test_rebalance_needs_a_relief_shard():
    async def run():
        router = FederationRouter(_fleet(2, queue_capacity=64), seed=0,
                                  high_water=2)
        # both shards end up at/above the mark: shedding would just move
        # saturation around the ring, so the router must not churn
        for i in range(8):
            await router.submit(_request(f"t{i % 4}"))
        assert router.migrations == 0
        await router.start()
        await router.drain()

    asyncio.run(run())


# ----------------------------------------------------------------------
# the wire front-end
# ----------------------------------------------------------------------
def test_federation_speaks_the_existing_protocol_over_tcp():
    async def run():
        service = FederationService(FederationRouter(_fleet(3), seed=0))
        host, port = await service.start("127.0.0.1", 0)
        async with await ServiceClient.connect(host, port) as cli:
            pong = await cli.ping()
            assert pong["federation"] is True
            assert len(pong["fleet"]) == 3
            job_id = await cli.submit(_request("alice"))
            assert job_id.startswith("fed-")
            job = await cli.wait(job_id, timeout=TIMEOUT)
            assert job["state"] == "completed"
            assert job["job_id"] == job_id
            assert job["shard"] in {"shard-0", "shard-1", "shard-2"}
            assert job["placements"] == [job["shard"]]
            metrics = await cli.metrics()
            assert metrics["router"]["submitted"] == 1
            assert metrics["jobs"][job_id]["state"] == "completed"
            # every fleet runs the failure detector, so the op always answers
            reply = await cli.request({"op": "membership"})
            assert reply["ok"] is True
            detector = reply["membership"]["detector"]
            assert detector["config"] == {
                "heartbeat_every": 5, "suspect_after": 2, "confirm_after": 3,
            }
            assert sorted(detector["members"]) == ["shard-0", "shard-1", "shard-2"]
            assert all(
                member["state"] == "alive"
                for member in detector["members"].values()
            )
        async with await ServiceClient.connect(host, port) as cli:
            snapshot = await cli.drain()
        _assert_conserved(snapshot)
        # post-drain: submissions bounce with the typed draining error
        with pytest.raises(AdmissionRejected) as excinfo:
            await FederationRouter.submit(service.router, _request("late"))
        assert excinfo.value.code == "draining"

    asyncio.run(run())


def test_unknown_fed_job_id_is_a_protocol_error():
    async def run():
        router = FederationRouter(_fleet(2), seed=0)
        with pytest.raises(ProtocolError):
            router.status("fed-99999")

    asyncio.run(run())


# ----------------------------------------------------------------------
# seeded reproducibility
# ----------------------------------------------------------------------
def _canonical_chaos_run():
    async def run():
        plan = ShardFaultPlan(0.5, seed=11)
        router = FederationRouter(
            _fleet(4), seed=3, high_water=None, shard_fault_plan=plan
        )
        await router.start()
        for i in range(20):
            await router.submit(_request(f"t{i % 5}"))
        await router.drain()
        snapshot = router.metrics_snapshot()
        canon = {
            "placements": router.placements,
            "shard_deaths": router.shard_deaths,
            "requeued_jobs": router.requeued_jobs,
            "dead": snapshot["fleet"]["dead"],
            "jobs": {
                fed_id: {
                    "tenant": job["tenant"],
                    "shard": job["shard"],
                    "placements": job["placements"],
                    "state": job["state"],
                }
                for fed_id, job in snapshot["jobs"].items()
            },
        }
        return json.dumps(canon, sort_keys=True)

    return asyncio.run(run())


def test_same_seed_chaos_runs_are_byte_identical():
    assert _canonical_chaos_run() == _canonical_chaos_run()


def test_shard_fault_seeds_are_distinct_per_shard():
    assert shard_fault_seed(0, "shard-0") != shard_fault_seed(0, "shard-1")
    assert shard_fault_seed(0, "shard-0") != shard_fault_seed(1, "shard-0")
    assert shard_fault_seed(5, "shard-2") == shard_fault_seed(5, "shard-2")


def test_shard_fault_plan_is_memoised_and_validated():
    plan = ShardFaultPlan(1.0, seed=0, min_placements=2, max_placements=2)
    assert plan.decide("shard-0") == 2
    assert plan.decide("shard-0") == 2
    assert not plan.should_crash("shard-0", 1)
    assert plan.should_crash("shard-0", 2)
    with pytest.raises(Exception):
        ShardFaultPlan(1.5)
    with pytest.raises(Exception):
        ShardFaultPlan(0.5, min_placements=0)
    with pytest.raises(Exception):
        ShardFaultPlan(0.5, min_placements=3, max_placements=2)


# ----------------------------------------------------------------------
# affinity policy unit behaviour
# ----------------------------------------------------------------------
def test_affinity_order_prefers_unsaturated_home():
    policy = AffinityPolicy()
    ring_order = ["b", "a", "c"]
    alive = {"a", "b", "c"}
    # no home yet: pure ring order
    assert policy.order("t", ring_order, alive=alive) == ["b", "a", "c"]
    policy.note_placement("t", "c")
    assert policy.order("t", ring_order, alive=alive) == ["c", "b", "a"]
    # saturated home drops behind the unsaturated shards but stays first
    # among the saturated tail
    assert policy.order("t", ring_order, alive=alive, saturated={"c", "b"}) == [
        "a", "c", "b",
    ]
    # dead home vanishes entirely
    assert policy.order("t", ring_order, alive={"a", "b"}) == ["b", "a"]


def test_affinity_forget_shard_reports_affected_tenants():
    policy = AffinityPolicy()
    policy.note_placement("t1", "a")
    policy.note_placement("t2", "a")
    policy.note_placement("t3", "b")
    assert policy.forget_shard("a") == ["t1", "t2"]
    assert policy.homes() == {"t3": "b"}
    assert policy.forget_shard("a") == []


# ----------------------------------------------------------------------
# the serve-core extensions federation rides on
# ----------------------------------------------------------------------
def test_service_adopt_and_evict_conserve_with_evicted_counter():
    async def run():
        donor = SchedulingService(
            dual_socket_small(), config=_fast_config(), queue_capacity=8
        )
        taker = SchedulingService(
            dual_socket_small(), config=_fast_config(), queue_capacity=8
        )
        for i in range(4):
            donor.submit(_request(f"t{i}"))
        evicted = donor.evict_queued(2)
        assert [r.job_id for r in evicted] == ["job-00004", "job-00003"]
        assert all(r.job_id not in donor.records for r in evicted)
        for record in evicted:
            adopted = taker.adopt(record.request)
            assert adopted.job_id in taker.records
        donor.start_workers()
        taker.start_workers()
        d = await donor.drain()
        t = await taker.drain()
        assert d["jobs"]["submitted"] == 4
        assert d["jobs"]["evicted"] == 2
        assert d["jobs"]["completed"] == 2
        assert t["jobs"]["submitted"] == 2
        assert t["jobs"]["completed"] == 2
        for jobs in (d["jobs"], t["jobs"]):
            assert jobs["submitted"] == (
                jobs["completed"] + jobs["failed"] + jobs["active"]
                + jobs["queued"] + jobs["evicted"]
            )

    asyncio.run(run())


def test_service_kill_reclaims_leases_and_bounces_new_work():
    async def run():
        service = SchedulingService(
            dual_socket_small(), config=_fast_config(), queue_capacity=8,
            workers=1,
        )
        service.start_workers()
        for i in range(3):
            service.submit(_request(f"t{i}"))
        await asyncio.sleep(0)  # let a worker take the first job
        orphans = await service.kill()
        assert orphans  # something was in flight or queued
        leases = service.arbiter.ledger.lease_map()
        assert all(owner is None for owner in leases.values())
        with pytest.raises(AdmissionRejected):
            service.submit(_request("late"))

    asyncio.run(run())
