"""Federation tier: the scheduling service sharded across a fleet.

One machine's :class:`~repro.serve.server.SchedulingService` arbitrates
interference- and locality-aware leases; this package runs *N* of them —
each with its own topology, arbiter, fault plan and metrics — behind a
:class:`~repro.serve.federation.router.FederationRouter` that decides
*which machine* a tenant's job runs on:

* a seeded consistent-hash ring with virtual nodes
  (:class:`~repro.serve.federation.ring.ConsistentHashRing`) gives every
  tenant a deterministic shard preference order;
* a warm-PTT affinity policy
  (:class:`~repro.serve.federation.affinity.AffinityPolicy`) keeps a
  tenant on the shard already holding its performance history;
* saturation past a high-water mark sheds the youngest waiting jobs onto
  the ring's next choice, never touching the FIFO head — the per-shard
  strict-FIFO no-starvation invariant survives every rebalance;
* a seeded ``shard_crash`` fault
  (:class:`~repro.serve.federation.faults.ShardFaultPlan`) stops a whole
  shard silently mid-run, and the run replays byte-identically;
* **self-healing** on every fleet: the logical-clock failure detector
  (:class:`~repro.serve.federation.membership.Membership`) finds those
  crashes by missed heartbeat polls, displaced tenants' PTT checkpoints
  migrate warm to their new owners, the orphaned jobs requeue through
  the router, and an optional supervisor
  (:class:`~repro.serve.federation.supervisor.ShardSupervisor`) respawns
  confirmed-dead shards at a new epoch through the live-join path.

The fleet is served through the one wire front end
(:class:`~repro.serve.frontend.WireFrontEnd`), bound to the router by
:class:`~repro.serve.federation.service.FederationService`, so it speaks
the same newline-JSON protocol as one machine and single-machine clients
and the load generator drive it unchanged.  There is one serve CLI;
start a fleet with::

    python -m repro.serve --shards 3 --machine small
"""

from repro.serve.federation.affinity import AffinityPolicy
from repro.serve.federation.faults import SHARD_CRASH, ShardFaultPlan
from repro.serve.federation.membership import (
    Membership,
    MemberRecord,
    MembershipEvent,
    MemberState,
)
from repro.serve.federation.ring import ConsistentHashRing, RingError
from repro.serve.federation.router import FederatedJob, FederationRouter
from repro.serve.federation.service import FederationService
from repro.serve.federation.shard import (
    ShardHandle,
    build_shard,
    build_shards,
    respawn_factory,
    shard_fault_seed,
)
from repro.serve.federation.supervisor import RespawnRecord, ShardSupervisor

__all__ = [
    "SHARD_CRASH",
    "AffinityPolicy",
    "ConsistentHashRing",
    "FederatedJob",
    "FederationRouter",
    "FederationService",
    "MemberRecord",
    "MemberState",
    "Membership",
    "MembershipEvent",
    "RespawnRecord",
    "RingError",
    "ShardFaultPlan",
    "ShardHandle",
    "ShardSupervisor",
    "build_shard",
    "build_shards",
    "respawn_factory",
    "shard_fault_seed",
]
