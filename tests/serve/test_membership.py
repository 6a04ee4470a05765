"""Unit tests for the self-healing federation layer.

Covers each piece in isolation — the logical-clock failure detector, the
supervised respawn budget, the tenant-state generation guard, the PTT
wire round-trip, the moldability export/restore pair, scheduled crash
points and the client reconnect budget — and two compact end-to-end
router scenarios (warm migration, pre-checkpoint drop).
"""

import asyncio

import numpy as np
import pytest

from repro.core.moldability import MoldabilityController, Phase
from repro.core.ptt import TaskloopPTT
from repro.errors import ConfigurationError
from repro.exp.runner import ExperimentConfig
from repro.serve.client import ReconnectExhausted, ServiceClient
from repro.serve.federation import (
    FederationRouter,
    FederationService,
    Membership,
    MemberState,
    ShardFaultPlan,
    ShardSupervisor,
    build_shard,
    build_shards,
    respawn_factory,
)
from repro.serve.protocol import JobRequest, ProtocolError
from repro.serve.server import SchedulingService
from repro.serve.tenantstate import TenantCheckpoint, TenantStateStore
from repro.errors import ServeError
from repro.topology.presets import default_distances, dual_socket_small

TIMEOUT = 60  # hang guard for the wire tests


# ----------------------------------------------------------------------
# failure detector
# ----------------------------------------------------------------------

def test_membership_config_validation():
    with pytest.raises(ValueError):
        Membership(heartbeat_every=0)
    with pytest.raises(ValueError):
        Membership(suspect_after=0)
    # confirmation must pass through SUSPECT first
    with pytest.raises(ValueError):
        Membership(suspect_after=2, confirm_after=2)


def test_membership_suspect_then_confirm():
    m = Membership(heartbeat_every=1, suspect_after=1, confirm_after=2)
    m.register("shard-0")
    m.register("shard-1")

    confirmed = m.poll(["shard-0"], at=3)
    assert confirmed == []
    assert m.get("shard-1").state is MemberState.SUSPECT
    assert m.suspects() == ["shard-1"]
    assert m.placeable() == ["shard-0"]  # suspects take no new placements

    confirmed = m.poll(["shard-0"], at=4)
    assert [r.member_id for r in confirmed] == ["shard-1"]
    assert m.get("shard-1").state is MemberState.DEAD
    assert m.deaths_confirmed == 1
    record = m.get("shard-1")
    assert record.ended_at == 4

    transitions = [(e.old_state, e.new_state) for e in m.events
                   if e.member_id == "shard-1"]
    assert transitions == [("none", "alive"), ("alive", "suspect"),
                           ("suspect", "dead")]


def test_membership_suspect_clears_on_answered_poll():
    m = Membership(heartbeat_every=1, suspect_after=1, confirm_after=3)
    m.register("shard-0")
    m.register("shard-1")
    m.poll(["shard-0"], at=1)
    assert m.get("shard-1").state is MemberState.SUSPECT
    m.poll(["shard-0", "shard-1"], at=2)  # the blip passed
    assert m.get("shard-1").state is MemberState.ALIVE
    assert m.get("shard-1").missed_polls == 0
    assert m.suspects_cleared == 1
    # the counter restarts from zero: one more miss is only SUSPECT again
    m.poll(["shard-0"], at=3)
    assert m.get("shard-1").state is MemberState.SUSPECT
    assert m.deaths_confirmed == 0


def test_membership_epoch_guard_on_rejoin():
    m = Membership(heartbeat_every=1, suspect_after=1, confirm_after=2)
    m.register("shard-0")
    with pytest.raises(ValueError):
        m.register("shard-0")  # still alive
    m.poll([], at=1)
    m.poll([], at=2)
    assert m.get("shard-0").state is MemberState.DEAD
    with pytest.raises(ValueError):
        m.register("shard-0", epoch=0)  # stale incarnation
    record = m.register("shard-0", epoch=1, at=5)
    assert record.instance_id == "shard-0@e1"
    assert m.get("shard-0").state is MemberState.ALIVE
    assert len(m.describe()["retired"]) == 1


def test_membership_due_is_modular():
    m = Membership(heartbeat_every=3, suspect_after=1, confirm_after=2)
    assert not m.due(0)  # never before the first placement
    assert [p for p in range(1, 10) if m.due(p)] == [3, 6, 9]


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------

def _fast_config(**overrides):
    base = dict(seeds=1, timesteps=2, with_noise=False, jobs=1, cache_dir=None)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_supervisor_respawn_budget_and_epochs():
    factory = respawn_factory(dual_socket_small, config=_fast_config(),
                              queue_capacity=8, workers=1)
    sup = ShardSupervisor(factory, max_respawns=1)

    async def run():
        first = await sup.respawn("shard-0", dead_epoch=0, at=4)
        assert first is not None
        assert first.epoch == 1 and first.instance_id == "shard-0@e1"
        await first.crash()
        # budget of one: the second death of the same shard stays dead
        assert not sup.can_respawn("shard-0")
        assert await sup.respawn("shard-0", dead_epoch=1, at=9) is None
        # but another shard id has its own budget
        other = await sup.respawn("shard-1", dead_epoch=0, at=9)
        assert other is not None
        await other.crash()

    asyncio.run(run())
    doc = sup.describe()
    assert doc["respawns_total"] == 2
    assert doc["per_shard"] == {"shard-0": 1, "shard-1": 1}
    assert [(r["shard_id"], r["new_epoch"]) for r in doc["log"]] == [
        ("shard-0", 1), ("shard-1", 1)]


def test_supervisor_rejects_factory_epoch_mismatch():
    def bad_factory(shard_id, epoch):
        return build_shard(shard_id, dual_socket_small, epoch=epoch + 1,
                           config=_fast_config(), queue_capacity=8, workers=1)

    sup = ShardSupervisor(bad_factory, max_respawns=1)
    with pytest.raises(ValueError):
        asyncio.run(sup.respawn("shard-0", dead_epoch=0, at=1))


# ----------------------------------------------------------------------
# warm-state wire formats and guards
# ----------------------------------------------------------------------

def _warm_ptt(num_nodes=4):
    ptt = TaskloopPTT(num_nodes=num_nodes)
    perf = np.full(num_nodes, np.nan)
    perf[0] = 2.0
    ptt.record((4, 0b0001, "strict"), 1.5, perf)
    ptt.record((4, 0b0001, "strict"), 1.7)
    ptt.record((8, 0b0011, "full"), 1.1)
    return ptt


def test_ptt_wire_round_trip_is_exact():
    ptt = _warm_ptt()
    clone = TaskloopPTT.from_wire(ptt.to_wire())
    assert clone.num_nodes == ptt.num_nodes
    assert clone.executions == ptt.executions
    assert set(clone.entries) == set(ptt.entries)
    for key, stats in ptt.entries.items():
        other = clone.entries[key]
        # Welford triples travel exactly: merged statistics stay exact
        assert (other.count, other.mean, other.m2, other.min_time) == (
            stats.count, stats.mean, stats.m2, stats.min_time)
    assert np.array_equal(clone.node_perf, ptt.node_perf, equal_nan=True)
    # the round trip is a fixed point at the byte level
    assert clone.to_wire() == ptt.to_wire()


def test_ptt_import_wire_generation_guard():
    ptt = _warm_ptt()
    stale = ptt.to_wire()  # generation 0
    ptt.invalidate()  # generation 1: the old entries are declared dead
    assert not ptt.import_wire(stale)
    assert ptt.entries == {}  # the resurrection was refused
    fresh = _warm_ptt()
    fresh.invalidate()
    fresh.record((2, 0b0001, "strict"), 0.9)
    assert ptt.import_wire(fresh.to_wire())
    assert (2, 0b0001, "strict") in ptt.entries


def test_ptt_from_wire_rejects_malformed():
    with pytest.raises(ConfigurationError):
        TaskloopPTT.from_wire({"version": 999})
    doc = _warm_ptt().to_wire()
    doc["node_perf"] = [1.0]  # wrong width
    with pytest.raises(ConfigurationError):
        TaskloopPTT.from_wire(doc)


def _checkpoint(generation, *, tenant="tenant-0", benchmark="matmul"):
    return TenantCheckpoint(
        tenant=tenant, benchmark=benchmark, generation=generation,
        jobs_completed=generation, fastest_node=1, phase="settled",
        ptt=_warm_ptt(),
    )


def test_tenant_state_store_generation_guard():
    store = TenantStateStore()
    assert store.import_doc(_checkpoint(3).to_wire())
    assert store.hint("tenant-0", "matmul") == 1
    # at or below the held generation: refused, tallied, state untouched
    assert not store.import_doc(_checkpoint(3).to_wire())
    assert not store.import_doc(_checkpoint(1).to_wire())
    assert store.stale_imports == 2
    assert store.get("tenant-0", "matmul").generation == 3
    # strictly newer wins
    assert store.import_doc(_checkpoint(4).to_wire())
    assert store.get("tenant-0", "matmul").generation == 4
    assert store.imported == 2
    with pytest.raises(ServeError):
        store.import_doc({"version": 999})


def test_tenant_state_drain_dirty_is_a_delta():
    store = TenantStateStore()
    store.import_doc(_checkpoint(1).to_wire())
    store.import_doc(_checkpoint(1, tenant="tenant-1").to_wire())
    docs = store.drain_dirty()
    assert sorted(d["tenant"] for d in docs) == ["tenant-0", "tenant-1"]
    assert store.drain_dirty() == []  # nothing changed since
    store.import_doc(_checkpoint(2).to_wire())
    assert [d["tenant"] for d in store.drain_dirty()] == ["tenant-0"]


def test_moldability_export_restore_round_trip(small):
    ctrl = MoldabilityController(
        topology=small, distances=default_distances(small), granularity=2
    )
    ptt = TaskloopPTT(num_nodes=small.num_nodes)
    # walk a few encounters so there is real lifecycle state to move
    for elapsed in (2.0, 1.8, 1.6, 1.4, 1.2):
        cfg = ctrl.next_config(ptt)
        if ctrl.phase is Phase.SETTLED:
            break
        if ctrl.record_next:
            ptt.record(cfg.key, elapsed)
        ctrl.observe(ctrl.record_next)
    doc = ctrl.export_state()

    target = MoldabilityController(
        topology=small, distances=default_distances(small), granularity=2
    )
    target.restore_state(doc)
    assert target.phase == ctrl.phase
    assert target.k == ctrl.k
    assert target.cur_threads == ctrl.cur_threads
    assert target.settled_config == ctrl.settled_config
    assert target.export_state() == doc  # fixed point


def test_moldability_restore_rejects_malformed(small):
    ctrl = MoldabilityController(
        topology=small, distances=default_distances(small), granularity=2
    )
    with pytest.raises(ConfigurationError):
        ctrl.restore_state({"phase": "no-such-phase"})
    with pytest.raises(ConfigurationError):
        ctrl.restore_state({"phase": "settled", "settled": None})


# ----------------------------------------------------------------------
# scheduled crash points
# ----------------------------------------------------------------------

def test_shard_fault_plan_scheduled_overrides_the_draw():
    drawn = ShardFaultPlan(1.0, seed=7, min_placements=2, max_placements=6)
    scheduled = ShardFaultPlan(1.0, seed=7, min_placements=2, max_placements=6)
    scheduled.scheduled["shard-0"] = 9
    assert scheduled.decide("shard-0") == 9
    assert scheduled.should_crash("shard-0", 9)
    assert not scheduled.should_crash("shard-0", 8)
    # scheduling one shard never perturbs another's seeded fate
    assert scheduled.decide("shard-1") == drawn.decide("shard-1")
    assert scheduled.decisions()["shard-0"] == 9
    assert scheduled.to_wire()["scheduled"] == {"shard-0": 9}


# ----------------------------------------------------------------------
# client reconnect budget
# ----------------------------------------------------------------------

def test_reconnect_survives_a_restart_and_exhausts_on_a_dead_endpoint(small):
    async def run():
        service = SchedulingService(small, config=_fast_config(), workers=1)
        host, port = await service.start("127.0.0.1", 0)
        client = await ServiceClient.connect(host, port)
        await client.ping()

        # the endpoint survives: one dial suffices, no sleeping
        await client.reconnect(max_attempts=2)
        await client.ping()

        await service.kill()

        naps = []

        async def no_sleep(delay):
            naps.append(delay)

        with pytest.raises(ReconnectExhausted) as excinfo:
            await client.reconnect(max_attempts=3, sleep=no_sleep)
        assert excinfo.value.attempts == 3
        assert excinfo.value.code == "reconnect_exhausted"
        assert len(naps) == 2  # no sleep before the first dial
        await client.close()

    asyncio.run(run())


def test_reconnect_requires_a_remembered_address():
    async def run():
        reader = asyncio.StreamReader()
        with pytest.raises(ProtocolError):
            await ServiceClient(reader, writer=None).reconnect()
        with pytest.raises(ValueError):
            await ServiceClient(reader, None, host="h", port=1).reconnect(
                max_attempts=0
            )

    asyncio.run(run())


# ----------------------------------------------------------------------
# end-to-end: detection, migration, respawn through the router
# ----------------------------------------------------------------------

def _healing_router(*, kill_at, jobs=8, heartbeat_every=1):
    config = _fast_config()
    shards = build_shards(3, dual_socket_small, config=config,
                          queue_capacity=max(jobs, 16), workers=1)
    plan = ShardFaultPlan(0.0, seed=5)
    plan.scheduled["shard-1"] = kill_at
    membership = Membership(heartbeat_every=heartbeat_every,
                            suspect_after=1, confirm_after=2)
    supervisor = ShardSupervisor(
        respawn_factory(dual_socket_small, config=config,
                        queue_capacity=max(jobs, 16), workers=1),
        max_respawns=1,
    )
    return FederationRouter(shards, seed=3, shard_fault_plan=plan,
                            membership=membership, supervisor=supervisor), plan


def test_router_confirms_death_and_respawns_at_epoch_one():
    async def run():
        router, plan = _healing_router(kill_at=1)
        await router.start()
        for i in range(8):
            await router.submit(JobRequest(benchmark="matmul", timesteps=2,
                                           nodes=1, tenant=f"tenant-{i % 4}"))
        snapshot = await router.drain()
        return snapshot, plan

    snapshot, plan = asyncio.run(run())
    assert plan.crashed == ["shard-1"]
    membership = snapshot["membership"]
    assert membership["deaths_confirmed"] == 1
    assert membership["epochs"]["shard-1"] == 1
    assert membership["respawns"]["respawns_total"] == 1
    # pre-checkpoint crash: the loss is tallied, never silent
    assert membership["migrations_dropped"] >= 0
    # both incarnations appear in the snapshot, conservation on each
    assert "shard-1" in snapshot["shards"]
    assert "shard-1@e1" in snapshot["shards"]
    for iid, shard in snapshot["shards"].items():
        jobs = shard["jobs"]
        assert jobs["submitted"] == (
            jobs["completed"] + jobs["failed"] + jobs["active"]
            + jobs["queued"] + jobs["evicted"]), iid
    states = snapshot["router"]["job_states"]
    assert states["completed"] + states["failed"] == 8


def test_status_during_detection_window_answers_from_the_stash():
    """Between a silent crash and its confirmation, a crashed shard's
    non-terminal jobs live only in its stashed-orphan list (the dead
    service deleted their records).  A status poll in that window must
    answer from the stash, not leak ``unknown job 'job-...'`` with the
    shard-local id — the bug a closed-loop client polling mid-window
    actually hit."""
    async def run():
        # a huge heartbeat interval keeps the death unconfirmed for the
        # whole submit phase — the detection window under test
        router, plan = _healing_router(kill_at=1, heartbeat_every=100)
        await router.start()
        fed_jobs = []
        for i in range(8):
            fed_jobs.append(await router.submit(JobRequest(
                benchmark="matmul", timesteps=2, nodes=1,
                tenant=f"tenant-{i % 4}")))
        assert plan.crashed == ["shard-1"]
        handle = router.instances["shard-1"]
        assert not handle.alive and handle.stashed_orphans
        windowed = [
            job for job in fed_jobs
            if job.shard_id == "shard-1"
            and job.local_job_id not in handle.service.records
        ]
        assert windowed, "the scheduled crash must strand a job"
        for job in windowed:
            wire = router.status(job.fed_id)
            assert wire["job_id"] == job.fed_id
            assert wire["shard"] == "shard-1"
            assert wire["state"] in ("queued", "running")
        # the tally sees them too: nothing vanishes during the window
        states = router.job_states()
        assert sum(states.values()) == 8
        with pytest.raises(ProtocolError):
            router.status("fed-99999")
        # drain flushes detection: recovery still lands afterwards
        snapshot = await router.drain()
        return snapshot

    snapshot = asyncio.run(run())
    assert snapshot["membership"]["deaths_confirmed"] == 1
    states = snapshot["router"]["job_states"]
    assert states["completed"] + states["failed"] == 8


def test_pump_detection_confirms_death_without_new_placements():
    """Closed-loop liveness: once every client is polling a stranded job,
    the placement clock is frozen — no submissions, no heartbeats, no
    confirmation, ever.  Status traffic pumps the detector instead, so
    repeated pump rounds alone must confirm the death and hand the
    stashed orphans to recovery."""
    async def run():
        router, plan = _healing_router(kill_at=1, heartbeat_every=100)
        await router.start()
        for i in range(8):
            await router.submit(JobRequest(benchmark="matmul", timesteps=2,
                                           nodes=1, tenant=f"tenant-{i % 4}"))
        assert plan.crashed == ["shard-1"]
        assert router._undetected_crashes() == ["shard-1"]
        await router.pump_detection()  # first missed poll: suspect
        assert router._undetected_crashes() == ["shard-1"]
        await router.pump_detection()  # second missed poll: confirmed
        assert router._undetected_crashes() == []
        heartbeats = router.heartbeats
        await router.pump_detection()  # healthy fleet: a no-op
        assert router.heartbeats == heartbeats
        return await router.drain()

    snapshot = asyncio.run(run())
    membership = snapshot["membership"]
    assert membership["deaths_confirmed"] == 1
    assert membership["epochs"]["shard-1"] == 1
    assert membership["respawns"]["respawns_total"] == 1
    states = snapshot["router"]["job_states"]
    assert states["completed"] + states["failed"] == 8


def test_wait_alone_recovers_a_job_stranded_by_a_silent_crash():
    """The same closed-loop liveness with no status traffic at all: a
    client that only ``wait``s on its stranded job drives the detector
    to confirmation, and the reply comes from the shard that adopted
    the job."""
    async def run():
        router, plan = _healing_router(kill_at=1, heartbeat_every=100)
        fleet = FederationService(router)
        status_calls = []
        real_status = fleet.status_wire

        async def status_wire(job_id):
            status_calls.append(job_id)
            return await real_status(job_id)

        fleet.status_wire = status_wire
        host, port = await fleet.start("127.0.0.1", 0)
        async with await ServiceClient.connect(host, port) as cli:
            fed_ids = [
                await cli.submit(JobRequest(benchmark="matmul", timesteps=2,
                                            nodes=1, tenant=f"tenant-{i % 4}"))
                for i in range(8)
            ]
            assert plan.crashed == ["shard-1"]
            handle = router.instances["shard-1"]
            stranded = [
                fed_id for fed_id in fed_ids
                if router.jobs[fed_id].shard_id == "shard-1"
                and router.jobs[fed_id].local_job_id not in handle.service.records
            ]
            assert stranded, "the scheduled crash must strand a job"
            assert router.membership.deaths_confirmed == 0
            jobs = [await cli.wait(fed_id, timeout=TIMEOUT) for fed_id in stranded]
            await cli.drain()
        assert status_calls == []
        assert router.membership.deaths_confirmed == 1
        for job in jobs:
            assert job["state"] == "completed"
            assert job["placements"][0] == "shard-1"
            assert job["shard"] != "shard-1"
            assert job["migrations"] == 1

    asyncio.run(run())


def test_respawned_shard_of_an_exposed_fleet_listens_at_its_endpoint():
    async def run():
        router, plan = _healing_router(kill_at=1, heartbeat_every=100)
        await router.start(expose_shards=True)
        for i in range(8):
            await router.submit(JobRequest(benchmark="matmul", timesteps=2,
                                           nodes=1, tenant=f"tenant-{i % 4}"))
        assert plan.crashed == ["shard-1"]
        while router._undetected_crashes():
            await router.pump_detection()
        respawned = router.shards["shard-1"]
        assert respawned.instance_id == "shard-1@e1"
        endpoint = respawned.describe()["endpoint"]
        assert endpoint is not None
        host, port = endpoint.rsplit(":", 1)
        async with await ServiceClient.connect(host, int(port)) as cli:
            pong = await cli.ping()
        assert pong["pong"] is True
        assert pong["machine"] == respawned.service.topology.describe()
        await router.drain()

    asyncio.run(run())
