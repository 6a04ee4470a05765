"""The federation router: topology-aware placement across N shards.

:class:`FederationRouter` is the tier above N in-process
:class:`~repro.serve.server.SchedulingService` shards.  Per submission it

1. computes the tenant's deterministic ring preference
   (:class:`~repro.serve.federation.ring.ConsistentHashRing`, seeded
   virtual nodes),
2. re-orders it by warm-PTT affinity and saturation
   (:class:`~repro.serve.federation.affinity.AffinityPolicy`),
3. places the job on the first shard that admits it (failing over past
   ``queue_full`` rejections), and
4. applies the consequences: a seeded shard crash due at this placement
   count stops the shard *silently*, and a shard past the admission
   high-water mark sheds its *youngest* waiting jobs onto the ring's next
   choice.

Every fleet runs a failure detector
(:class:`~repro.serve.federation.membership.Membership`, heartbeat every
5 placements, SUSPECT after 2 missed polls, DEAD after 3 unless the
caller passes other thresholds).  A crashed shard's orphans stay stashed
on its handle, and the router only learns of the death when the detector
confirms it — after ``suspect_after`` missed heartbeat polls (SUSPECT,
excluded from new placements) and then ``confirm_after`` (DEAD).
Confirmation triggers the recovery pipeline, in order: ring removal →
**warm tenant state migration** (the archived PTT checkpoints pulled at
earlier heartbeats are imported into each displaced tenant's new owner,
and the affinity home is re-pointed there so the tenant's next job
starts warm) → stashed-orphan adoption (which lands on the freshly
warmed owners) → with a
:class:`~repro.serve.federation.supervisor.ShardSupervisor`, a respawn
readmitting the shard at ``epoch + 1`` via the normal join path (without
one, a confirmed-dead shard stays dead).  Tenants whose shard died
before their first checkpoint degrade gracefully to a fresh bootstrap
and are tallied under ``migrations_dropped``.

Job identity is two-level: clients see stable federation ids
(``fed-00001``); each placement maps the fed id to the current
``(instance, local job id)`` pair — *instance* being the epoch-qualified
shard identity, so a respawn can never collide with its dead
predecessor's job ids — and migration or shard death re-points the
mapping without the client ever noticing.  The strict-FIFO
no-starvation invariant holds *per shard* throughout: rebalance only
ever removes queue tails, never overtakes a head-of-line waiter.

Everything the router decides is a pure function of the submission
sequence plus the seeds — placement order, crash points, heartbeat
rounds and migration targets are all counted in logical placements,
never the wall clock — which is what makes a federated chaos run with
mid-flight deaths, respawns and live joins byte-reproducible.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.serve.federation.affinity import AffinityPolicy
from repro.serve.federation.faults import SHARD_CRASH, ShardFaultPlan
from repro.serve.federation.membership import Membership
from repro.serve.federation.ring import ConsistentHashRing
from repro.serve.federation.shard import ShardHandle
from repro.serve.federation.supervisor import ShardSupervisor
from repro.serve.protocol import (
    AdmissionRejected,
    JobRecord,
    JobRequest,
    ProtocolError,
)

__all__ = ["FederatedJob", "FederationRouter"]


@dataclass
class FederatedJob:
    """Router-side record of one submission: stable id, mobile placement."""

    fed_id: str
    tenant: str
    shard_id: str  # epoch-qualified instance id of the current holder
    local_job_id: str
    #: Every shard that ever held the job, in placement order (the first
    #: entry is the initial placement; later entries are migrations or
    #: post-crash requeues).
    placements: list[str] = field(default_factory=list)

    @property
    def migrations(self) -> int:
        return len(self.placements) - 1

    def to_wire(self) -> dict[str, Any]:
        return {
            "fed_id": self.fed_id,
            "tenant": self.tenant,
            "shard": self.shard_id,
            "local_job_id": self.local_job_id,
            "placements": list(self.placements),
            "migrations": self.migrations,
        }


class FederationRouter:
    """Consistent-hash + affinity placement over a fleet of shards."""

    def __init__(
        self,
        shards: Sequence[ShardHandle],
        *,
        seed: int = 0,
        vnodes: int = 64,
        high_water: int | None = None,
        shard_fault_plan: ShardFaultPlan | None = None,
        membership: Membership | None = None,
        supervisor: ShardSupervisor | None = None,
    ):
        if not shards:
            raise ProtocolError("a federation needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ProtocolError(f"duplicate shard ids: {ids}")
        if high_water is not None and high_water < 1:
            raise ProtocolError(
                f"high_water must be a positive queue depth, got {high_water}"
            )
        #: Ring name → *current* incarnation.
        self.shards: dict[str, ShardHandle] = {s.shard_id: s for s in shards}
        #: Epoch-qualified instance id → every incarnation ever admitted
        #: (epoch 0 keeps the bare id, so first-incarnation keys are stable).
        self.instances: dict[str, ShardHandle] = {s.instance_id: s for s in shards}
        self.ring = ConsistentHashRing(ids, seed=seed, vnodes=vnodes)
        self.affinity = AffinityPolicy()
        self.high_water = high_water
        self.shard_fault_plan = shard_fault_plan
        self.membership = membership or Membership()
        self.supervisor = supervisor
        #: How :meth:`start` started the shards; a respawn starts the same way.
        self._expose_shards = False
        self._host = "127.0.0.1"
        for shard_id in sorted(self.shards):
            self.membership.register(
                shard_id, epoch=self.shards[shard_id].epoch, at=0
            )
        self.jobs: dict[str, FederatedJob] = {}
        self._local_index: dict[tuple[str, str], str] = {}
        self._fed_counter = 0
        #: Last-heartbeat PTT checkpoints: (tenant, benchmark) → wire doc.
        #: This is the state that survives a shard death — anything the
        #: shard learned *after* its last heartbeat dies with it.
        self._state_archive: dict[tuple[str, str], dict[str, Any]] = {}
        # router-level counters (the federated snapshot's `router` section)
        self.placements = 0
        self.failover_placements = 0
        self.migrations = 0
        self.shard_deaths = 0
        self.rebalanced_tenants = 0
        self.requeued_jobs = 0
        # self-healing counters (the snapshot's `membership` section)
        self.heartbeats = 0
        self.migrations_completed = 0
        self.migrations_dropped = 0
        #: Every tenant-state migration decision, in order: tenant, the
        #: adopting shard (None for a drop), and the documents moved.
        self.migration_log: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # shard roster
    # ------------------------------------------------------------------
    @property
    def live_shards(self) -> list[ShardHandle]:
        """Alive shards in deterministic (id-sorted) order."""
        return [self.shards[k] for k in sorted(self.shards) if self.shards[k].alive]

    def _saturated_ids(self) -> set[str]:
        if self.high_water is None:
            return set()
        return {s.shard_id for s in self.live_shards if s.depth >= self.high_water}

    def _placement_order(self, tenant: str) -> list[ShardHandle]:
        # SUSPECT shards stay on the ring but take no new placements
        placeable = {s.shard_id for s in self.live_shards} - set(
            self.membership.suspects()
        )
        order = self.affinity.order(
            tenant,
            self.ring.preference(tenant),
            alive=placeable,
            saturated=self._saturated_ids(),
        )
        return [self.shards[sid] for sid in order]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, expose_shards: bool = False, host: str = "127.0.0.1") -> None:
        """Start every shard's worker pool (and listeners when exposed);
        a supervised respawn later starts its incarnation the same way."""
        self._expose_shards = expose_shards
        self._host = host
        for shard in self.live_shards:
            await shard.start(expose=expose_shards, host=host)

    async def drain(self) -> dict[str, Any]:
        """Gracefully drain every live shard; returns the federated snapshot.

        Detection is flushed first: a shard that crashed silently near
        the end of the run (after the last regular heartbeat) is still
        confirmed, migrated and respawned before the fleet drains, so no
        stashed orphan is ever left non-terminal.
        """
        while self._undetected_crashes():
            await self._heartbeat()
        for shard in self.live_shards:
            await shard.service.drain()
        return self.metrics_snapshot()

    async def pump_detection(self) -> None:
        """Advance the failure detector outside the placement clock.

        The logical clock normally ticks on placements, which starves
        detection when closed-loop clients stop submitting because their
        in-flight jobs are stranded on a silently-crashed shard: no new
        placements, no heartbeats, no confirmation — a liveness deadlock.
        Status traffic and every ``wait`` on a stranded job call this to
        run one poll round whenever an unconfirmed crash exists, so
        waiting on the very jobs a dead shard stranded is what drives
        their recovery.
        """
        if self._undetected_crashes():
            await self._heartbeat()

    def _undetected_crashes(self) -> list[str]:
        """Shards that are down but not yet confirmed by the detector."""
        down = []
        for shard_id in sorted(self.shards):
            handle = self.shards[shard_id]
            record = self.membership.get(shard_id)
            if record is None or record.epoch != handle.epoch:
                continue
            if not handle.alive and record.state.value in ("alive", "suspect"):
                down.append(shard_id)
        return down

    async def join_shard(
        self,
        handle: ShardHandle,
        *,
        expose: bool = False,
        host: str = "127.0.0.1",
    ) -> None:
        """Live join: start a new shard and admit it to the fleet.

        The ring gains its virtual nodes (minimal remap: only tenants the
        new shard now owns move), and it starts being heartbeat-polled
        immediately.
        """
        await handle.start(expose=expose, host=host)
        self._admit(handle)

    def _admit(self, handle: ShardHandle) -> None:
        """Roster + ring + membership bookkeeping for a (re)joining shard."""
        current = self.shards.get(handle.shard_id)
        if current is not None and current.alive:
            raise ProtocolError(
                f"shard {handle.shard_id!r} is already in the fleet"
            )
        if handle.instance_id in self.instances:
            raise ProtocolError(
                f"instance {handle.instance_id!r} was already admitted once"
            )
        self.shards[handle.shard_id] = handle
        self.instances[handle.instance_id] = handle
        self.ring.add(handle.shard_id)
        self.membership.register(
            handle.shard_id, epoch=handle.epoch, at=self.placements
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    async def submit(self, request: JobRequest) -> FederatedJob:
        """Place one tenant job on the fleet; apply any due consequences.

        Raises :class:`ProtocolError` for requests no shard can ever run
        and :class:`AdmissionRejected` when every live shard's admission
        queue refuses the job (fleet-wide backpressure).
        """
        order = self._placement_order(request.tenant)
        if not order:
            raise AdmissionRejected(
                "draining", "the federation has no live shards"
            )
        rejections: list[AdmissionRejected] = []
        placed: ShardHandle | None = None
        record = None
        for rank, shard in enumerate(order):
            try:
                record = shard.service.submit(request)
            except AdmissionRejected as exc:
                rejections.append(exc)
                continue
            placed = shard
            if rank > 0:
                self.failover_placements += 1
            break
        if placed is None or record is None:
            assert rejections
            if all(exc.code == "draining" for exc in rejections):
                raise AdmissionRejected(
                    "draining", "every live shard is draining"
                )
            raise AdmissionRejected(
                "queue_full",
                "every live shard's admission queue is saturated "
                f"({len(order)} shard(s) tried)",
                depth=sum(s.depth for s in order),
                capacity=sum(s.service.admission.capacity for s in order),
            )

        self._fed_counter += 1
        job = FederatedJob(
            fed_id=f"fed-{self._fed_counter:05d}",
            tenant=request.tenant,
            shard_id=placed.instance_id,
            local_job_id=record.job_id,
            placements=[placed.instance_id],
        )
        self.jobs[job.fed_id] = job
        self._local_index[(placed.instance_id, record.job_id)] = job.fed_id
        self.affinity.note_placement(request.tenant, placed.shard_id)
        self.placements += 1
        placed.placements += 1

        await self._apply_consequences(placed)
        if self.membership.due(self.placements):
            await self._heartbeat()
        return job

    async def _apply_consequences(self, shard: ShardHandle) -> None:
        """Seeded crash + saturation rebalance due after a placement.

        A due crash is *silent*: the shard just stops, and everything
        else — detection, migration, adoption, respawn — happens later
        through the heartbeat path.  The last live shard never crashes: a
        federation with work in flight must keep at least one machine to
        conserve its jobs on.
        """
        plan = self.shard_fault_plan
        if plan is not None and plan.should_crash(shard.instance_id, shard.placements):
            # a crash still in progress counts as done: a concurrent
            # placement must neither crash a shard twice nor take down
            # the last one standing
            standing = [
                s for s in self.live_shards if s.instance_id not in plan.crashed
            ]
            if shard in standing and len(standing) > 1:
                plan.record_crash(shard.instance_id)
                self.shard_deaths += 1
                await shard.crash()
        if self.high_water is not None:
            # scan the whole fleet, not just the placed shard: an adoption
            # burst can leave a *different* shard over the mark, and it
            # would otherwise keep its backlog while relief shards idle
            for candidate in self.live_shards:
                if candidate.depth > self.high_water:
                    self._rebalance(candidate)

    # ------------------------------------------------------------------
    # self-healing: heartbeats, confirmed deaths, respawn
    # ------------------------------------------------------------------
    async def _heartbeat(self) -> None:
        """One failure-detector round at the current logical time.

        Responsive shards piggyback their dirty PTT checkpoints on the
        heartbeat reply (pulled into the router-side archive); shards
        that stay silent accumulate missed polls until the detector
        confirms them dead, at which point recovery runs.
        """
        self.heartbeats += 1
        responders: list[str] = []
        for shard_id in sorted(self.shards):
            handle = self.shards[shard_id]
            if not handle.alive:
                continue
            responders.append(shard_id)
            for doc in handle.service.tenant_state.drain_dirty():
                self._state_archive[(doc["tenant"], doc["benchmark"])] = doc
        confirmed = self.membership.poll(responders, at=self.placements)
        for record in confirmed:
            await self._confirm_death(record.member_id, record.epoch)

    async def _confirm_death(self, shard_id: str, epoch: int) -> None:
        """Recovery pipeline for one confirmed-dead shard.

        Order matters: the ring drops the member first (so ownership
        re-resolves), then tenant state migrates and rehomes (so the
        orphan adoptions that follow land on the freshly warmed owners),
        and the supervised respawn runs last (the new incarnation starts
        empty — its predecessor's tenants already live elsewhere, warm).
        """
        handle = self.shards[shard_id]
        assert not handle.alive, "the detector confirmed a live shard dead"
        self.ring.remove(shard_id)
        displaced = self.affinity.forget_shard(shard_id)
        self._migrate_tenants(displaced)
        self._adopt_orphans(handle, handle.take_stashed_orphans())
        if self.supervisor is not None:
            respawned = await self.supervisor.respawn(
                shard_id, dead_epoch=epoch, at=self.placements,
                expose=self._expose_shards, host=self._host,
            )
            if respawned is not None:
                self._admit(respawned)

    def _migrate_tenants(self, tenants: Sequence[str]) -> None:
        """Move each displaced tenant's archived PTT state to its new owner.

        A tenant with at least one archived checkpoint is imported into
        the first shard of its (post-removal) placement order and rehomed
        there — its next job starts warm.  A tenant with *no* archive
        entries (the shard died before its first checkpoint) bootstraps
        fresh, tallied under ``migrations_dropped``.
        """
        for tenant in sorted(set(tenants)):
            docs = sorted(
                (key, doc)
                for key, doc in self._state_archive.items()
                if key[0] == tenant
            )
            if not docs:
                self.migrations_dropped += 1
                self.migration_log.append(
                    {"tenant": tenant, "to": None, "docs": 0}
                )
                continue
            order = self._placement_order(tenant)
            if not order:
                # fleet-wide outage: nowhere to put the state; keep it
                # archived for the next shard to join
                continue
            target = order[0]
            imported = 0
            for _, doc in docs:
                if target.service.import_tenant_state(doc):
                    imported += 1
            if imported:
                self.affinity.rehome(tenant, target.shard_id)
                self.migrations_completed += 1
                self.migration_log.append(
                    {"tenant": tenant, "to": target.shard_id, "docs": imported}
                )
            else:
                self.migrations_dropped += 1
                self.migration_log.append(
                    {"tenant": tenant, "to": None, "docs": 0}
                )

    def _adopt_orphans(self, source: ShardHandle, orphans: Sequence[Any]) -> None:
        """Requeue a dead shard's orphans in fed-submission order."""
        touched: set[str] = set()
        fed_order = sorted(
            (self._local_index[(source.instance_id, r.job_id)], r) for r in orphans
        )
        for fed_id, orphan in fed_order:
            self._adopt(self.jobs[fed_id], orphan.request)
            touched.add(orphan.request.tenant)
        self.rebalanced_tenants += len(touched)

    def _adopt(self, job: FederatedJob, request: JobRequest) -> ShardHandle:
        """Re-place one orphaned/evicted job on the best surviving shard."""
        order = self._placement_order(request.tenant)
        assert order, "guarded: the last live shard never crashes"
        target = order[0]
        record = target.service.adopt(request)
        del self._local_index[(job.shard_id, job.local_job_id)]
        job.shard_id = target.instance_id
        job.local_job_id = record.job_id
        job.placements.append(target.instance_id)
        self._local_index[(target.instance_id, record.job_id)] = job.fed_id
        self.affinity.note_placement(request.tenant, target.shard_id)
        self.requeued_jobs += 1
        target.placements += 1
        return target

    # ------------------------------------------------------------------
    # saturation rebalance
    # ------------------------------------------------------------------
    def _rebalance(self, shard: ShardHandle) -> None:
        """Shed the youngest waiting jobs of a shard over the high-water mark.

        Only runs when another live shard sits *below* the mark — moving
        saturation around the ring would be churn, not relief.  Evicted
        jobs re-enter through the normal affinity order (minus the shard
        they just left), so a warm tenant still lands as close to its
        history as the fleet allows.
        """
        assert self.high_water is not None
        excess = shard.depth - self.high_water
        if excess <= 0:
            return
        relief = [
            s for s in self.live_shards
            if s.shard_id != shard.shard_id and s.depth < self.high_water
        ]
        if not relief:
            return
        evicted = shard.service.evict_queued(excess)
        moved_tenants: set[str] = set()
        for record in evicted:
            fed_id = self._local_index[(shard.instance_id, record.job_id)]
            job = self.jobs[fed_id]
            # never bounce a job straight back: drop the source from its
            # home so the affinity order starts at the ring's next choice
            if self.affinity.home_of(record.request.tenant) == shard.shard_id:
                self.affinity.note_placement(
                    record.request.tenant,
                    self._next_preferred(record.request.tenant, shard.shard_id),
                )
            self._adopt(job, record.request)
            self.migrations += 1
            moved_tenants.add(record.request.tenant)
        self.rebalanced_tenants += len(moved_tenants)

    def _next_preferred(self, tenant: str, excluding: str) -> str:
        for shard_id in self.ring.preference(tenant):
            if shard_id != excluding and self.shards[shard_id].alive:
                return shard_id
        return excluding  # single-shard fleet: nowhere else to point

    # ------------------------------------------------------------------
    # lookup & metrics
    # ------------------------------------------------------------------
    def status(self, fed_id: str) -> dict[str, Any]:
        """The job's wire record (:meth:`record`), with federation
        identity spliced in."""
        job = self._job(fed_id)
        wire = self._record(job).to_wire()
        wire["job_id"] = job.fed_id
        wire["shard"] = job.shard_id
        wire["placements"] = list(job.placements)
        wire["migrations"] = job.migrations
        return wire

    def record(self, fed_id: str) -> JobRecord:
        """The job's record on its holder, read without building its wire
        form.

        During the silent-crash detection window a crashed shard's
        non-terminal jobs live only in its stashed-orphan list (the dead
        service deleted their records); a lookup in that window answers
        from the stash — the job is pending recovery, not gone.
        """
        return self._record(self._job(fed_id))

    async def wait(self, fed_id: str, timeout: float | None = None) -> dict[str, Any]:
        """Block until the job is terminal; returns :meth:`status` then.

        The fed id is re-resolved at every step, so the wait follows the
        job across adoption, rebalance and respawn.  While the holder is
        down and its death unconfirmed, the wait pumps the failure
        detector (as status polls do) and yields to the event loop
        between pumps: a job stranded by a silent crash is recovered by
        waiting on it, even when no placement ever ticks the clock.
        With ``timeout`` (seconds), returns the record as it stands once
        that expires.
        """
        job = self._job(fed_id)
        try:
            await asyncio.wait_for(self._settled(job), timeout)
        except asyncio.TimeoutError:
            pass
        return self.status(fed_id)

    async def _settled(self, job: FederatedJob) -> None:
        while not (record := self._record(job)).state.terminal:
            service = self.instances[job.shard_id].service
            if record.job_id in service.records:
                # the holder wakes this on finish, kill or eviction
                await service.wait(record.job_id)
            else:
                # a stashed orphan: only confirmation moves it.  The pump
                # runs as its own task (awaiting it yields to the event
                # loop), and a wait cancelled by its timeout lets it
                # finish, so no recovery pipeline stops halfway.
                pump = asyncio.ensure_future(self.pump_detection())
                try:
                    await asyncio.shield(pump)
                except asyncio.CancelledError:
                    await pump
                    raise

    def _job(self, fed_id: str) -> FederatedJob:
        job = self.jobs.get(fed_id)
        if job is None:
            raise ProtocolError(f"unknown job {fed_id!r}")
        return job

    def _record(self, job: FederatedJob) -> JobRecord:
        handle = self.instances[job.shard_id]
        record = handle.service.records.get(job.local_job_id)
        if record is None:
            record = self._stashed_record(handle, job.local_job_id)
        if record is None:
            raise ProtocolError(f"unknown job {job.local_job_id!r}")
        return record

    @staticmethod
    def _stashed_record(handle: ShardHandle, local_job_id: str) -> JobRecord | None:
        """A crashed-but-unconfirmed shard's orphan, if it holds the job."""
        if handle.alive:
            return None
        for record in handle.stashed_orphans:
            if record.job_id == local_job_id:
                return record
        return None

    def job_states(self) -> dict[str, int]:
        """Fed-level state tally (the conservation the smoke asserts).

        Stashed orphans awaiting death confirmation count as queued:
        they are in flight toward re-admission, not finished.
        """
        tally = {"queued": 0, "running": 0, "completed": 0, "failed": 0}
        for job in self.jobs.values():
            handle = self.instances[job.shard_id]
            record = handle.service.records.get(job.local_job_id)
            if record is not None:
                tally[record.state.value] += 1
            elif self._stashed_record(handle, job.local_job_id) is not None:
                tally["queued"] += 1
        return tally

    def membership_snapshot(self) -> dict[str, Any]:
        """The self-healing section: detector view, respawns, migrations."""
        return {
            "detector": self.membership.describe(),
            "heartbeats": self.heartbeats,
            "suspects": self.membership.suspects(),
            "deaths_confirmed": self.membership.deaths_confirmed,
            "epochs": {
                shard_id: self.shards[shard_id].epoch
                for shard_id in sorted(self.shards)
            },
            "respawns": (
                self.supervisor.describe() if self.supervisor is not None else None
            ),
            "migrations_completed": self.migrations_completed,
            "migrations_dropped": self.migrations_dropped,
            "migration_log": [dict(entry) for entry in self.migration_log],
            "state_archive_entries": len(self._state_archive),
            "ring_digest": self.ring.digest(),
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Router counters + ring + every shard instance's own snapshot.

        The ``shards`` section is keyed by *instance id*, so a respawned
        shard contributes two entries — its dead predecessor (counters
        frozen at death) and the live incarnation — and fleet-wide
        conservation sums across both.
        """
        states = self.job_states()
        return {
            "router": {
                "submitted": self._fed_counter,
                "placements": self.placements,
                "failover_placements": self.failover_placements,
                "migrations": self.migrations,
                "shard_deaths": self.shard_deaths,
                "rebalanced_tenants": self.rebalanced_tenants,
                "requeued_jobs": self.requeued_jobs,
                "high_water": self.high_water,
                "job_states": states,
                "ring": self.ring.describe(),
                "tenant_homes": self.affinity.homes(),
                "shard_fault_plan": (
                    self.shard_fault_plan.to_wire()
                    if self.shard_fault_plan is not None
                    else None
                ),
            },
            "fleet": {
                "shards": len(self.shards),
                "alive": [s.shard_id for s in self.live_shards],
                "dead": sorted(
                    iid for iid, s in self.instances.items() if not s.alive
                ),
            },
            "shards": {
                iid: self.instances[iid].service.metrics_snapshot()
                for iid in sorted(self.instances)
            },
            "jobs": {
                fed_id: self._job_wire(job)
                for fed_id, job in sorted(self.jobs.items())
            },
            "membership": self.membership_snapshot(),
        }

    def _job_wire(self, job: FederatedJob) -> dict[str, Any]:
        wire = job.to_wire()
        record = self.instances[job.shard_id].service.records.get(job.local_job_id)
        wire["state"] = record.state.value if record is not None else None
        return wire
