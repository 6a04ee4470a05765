"""One federation shard: a whole :class:`SchedulingService` as a unit.

A shard owns everything the single-machine service owns — its *own*
simulated topology, :class:`~repro.serve.arbiter.NodeArbiter`,
admission queue, worker pool, metrics registry, and (optionally) its own
seeded job-level :class:`~repro.serve.faults.FaultPlan` — plus the
fleet-level identity and lifecycle the router needs: an id, an
alive/dead flag, a router-side placement counter (the logical clock that
triggers seeded shard crashes), and an optional TCP listener so the load
generator can drive an individual shard next to the router in the same
sweep.

Identity carries an **epoch**: the supervised respawn of a dead shard
keeps the ring name (``shard_id``) but runs at ``epoch + 1``, and
everything keyed per shard downstream (fault decisions, local job ids,
retired metrics) uses the epoch-qualified
:attr:`ShardHandle.instance_id` so a respawn never collides with its
ghost.  Epoch 0 keeps the bare id (``shard-1``), so first-incarnation
report keys never change.

Per-shard fault seeds are derived from the fleet fault seed through the
substream discipline (``stream(seed, "fed.shardseed", instance_id)``),
so two shards — or two incarnations of the *same* shard — never share
fault decisions even though their local job ids (``job-00001`` …)
collide.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import ServeError
from repro.exp.runner import ExperimentConfig
from repro.serve.faults import FaultKind, FaultPlan
from repro.serve.protocol import JobRecord
from repro.serve.server import SchedulingService
from repro.sim.rng import stream
from repro.topology.machine import MachineTopology

__all__ = [
    "ShardHandle",
    "build_shard",
    "build_shards",
    "respawn_factory",
    "shard_fault_seed",
]


def shard_fault_seed(seed: int, shard_id: str) -> int:
    """A per-shard fault-plan seed derived from the fleet seed.

    ``shard_id`` may be epoch-qualified (``shard-1@e2``): each respawn
    incarnation draws a fresh, independent crash schedule.
    """
    return int(stream(seed, "fed.shardseed", shard_id).integers(0, 2**31))


class ShardHandle:
    """Identity + lifecycle wrapper around one in-process service."""

    def __init__(self, shard_id: str, service: SchedulingService, *, epoch: int = 0):
        if not shard_id:
            raise ServeError("a shard needs a non-empty id")
        if epoch < 0:
            raise ServeError(f"shard epoch must be >= 0, got {epoch}")
        self.shard_id = shard_id
        self.epoch = epoch
        self.service = service
        self.alive = True
        #: Router placements absorbed (initial + adopted); the logical
        #: clock the seeded shard-crash schedule counts in.
        self.placements = 0
        self.host: str | None = None
        self.port: int | None = None
        #: Orphans stashed by a crash: the router only learns of them
        #: when the failure detector confirms the death, exactly like a
        #: real machine's unflushed state.
        self.stashed_orphans: list[JobRecord] = []

    @property
    def instance_id(self) -> str:
        """Epoch-qualified identity; epoch 0 keeps the bare id
        (``shard-1``), later incarnations add ``@e<epoch>``."""
        if self.epoch == 0:
            return self.shard_id
        return f"{self.shard_id}@e{self.epoch}"

    # ------------------------------------------------------------------
    async def start(self, *, expose: bool = False, host: str = "127.0.0.1") -> None:
        """Start the worker pool; with ``expose``, also a TCP listener."""
        if expose:
            self.host, self.port = await self.service.start(host, 0)
        else:
            self.service.start_workers()

    async def crash(self) -> None:
        """Die *silently*: the orphans are stashed on the handle, and the
        router finds out only when the failure detector confirms the
        death (heartbeats go unanswered).

        ``alive`` flips only after the kill finishes and the stash is
        set, in one synchronous segment.  Flipping it first opens a race:
        a status call or a pending wait during the kill's awaits could
        pump the detector to confirmation, and ``take_stashed_orphans``
        would run on a stash not yet populated — stranding the orphans
        on a retired handle.
        """
        orphans = await self.service.kill()
        self.stashed_orphans = orphans
        self.alive = False

    def take_stashed_orphans(self) -> list[JobRecord]:
        orphans, self.stashed_orphans = self.stashed_orphans, []
        return orphans

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs admitted here but not yet taken by a worker."""
        return self.service.admission.depth

    def describe(self) -> dict[str, object]:
        doc: dict[str, object] = {
            "shard_id": self.shard_id,
            "alive": self.alive,
            "machine": self.service.topology.describe(),
            "placements": self.placements,
            "queue_depth": self.depth,
            "endpoint": (
                f"{self.host}:{self.port}" if self.port is not None else None
            ),
        }
        if self.epoch:
            doc["epoch"] = self.epoch
        return doc

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"ShardHandle({self.instance_id!r}, {state}, placements={self.placements})"


def build_shard(
    shard_id: str,
    topology_factory: Callable[[], MachineTopology],
    *,
    epoch: int = 0,
    config: ExperimentConfig | None = None,
    queue_capacity: int = 16,
    workers: int | None = None,
    max_attempts: int = 3,
    default_deadline_s: float | None = None,
    fault_probabilities: Mapping[FaultKind | str, float] | None = None,
    fault_seed: int = 0,
    fault_attempts: int = 1,
) -> ShardHandle:
    """Construct one shard (fresh topology, per-instance fault seed)."""
    plan = None
    if fault_probabilities is not None:
        instance_id = shard_id if epoch == 0 else f"{shard_id}@e{epoch}"
        plan = FaultPlan(
            fault_probabilities,
            seed=shard_fault_seed(fault_seed, instance_id),
            fault_attempts=fault_attempts,
        )
    service = SchedulingService(
        topology_factory(),
        config=config,
        queue_capacity=queue_capacity,
        workers=workers,
        fault_plan=plan,
        max_attempts=max_attempts,
        default_deadline_s=default_deadline_s,
    )
    return ShardHandle(shard_id, service, epoch=epoch)


def build_shards(
    count: int,
    topology_factory: Callable[[], MachineTopology],
    *,
    config: ExperimentConfig | None = None,
    queue_capacity: int = 16,
    workers: int | None = None,
    max_attempts: int = 3,
    default_deadline_s: float | None = None,
    fault_probabilities: Mapping[FaultKind | str, float] | None = None,
    fault_seed: int = 0,
    fault_attempts: int = 1,
) -> list[ShardHandle]:
    """Construct ``count`` identical-but-independent shards.

    Each shard gets a *fresh* topology from ``topology_factory`` (never a
    shared instance — the ledgers must not alias) and, when
    ``fault_probabilities`` is given, its own job-level
    :class:`~repro.serve.faults.FaultPlan` seeded per shard id.
    """
    if count < 1:
        raise ServeError(f"a federation needs at least one shard, got {count}")
    return [
        build_shard(
            f"shard-{i}",
            topology_factory,
            config=config,
            queue_capacity=queue_capacity,
            workers=workers,
            max_attempts=max_attempts,
            default_deadline_s=default_deadline_s,
            fault_probabilities=fault_probabilities,
            fault_seed=fault_seed,
            fault_attempts=fault_attempts,
        )
        for i in range(count)
    ]


def respawn_factory(
    topology_factory: Callable[[], MachineTopology],
    *,
    config: ExperimentConfig | None = None,
    queue_capacity: int = 16,
    workers: int | None = None,
    max_attempts: int = 3,
    default_deadline_s: float | None = None,
    fault_probabilities: Mapping[FaultKind | str, float] | None = None,
    fault_seed: int = 0,
    fault_attempts: int = 1,
) -> Callable[[str, int], ShardHandle]:
    """A :class:`~repro.serve.federation.supervisor.ShardSupervisor`
    factory that rebuilds shards with the same recipe as
    :func:`build_shards`, at whatever epoch the supervisor asks for."""

    def factory(shard_id: str, epoch: int) -> ShardHandle:
        return build_shard(
            shard_id,
            topology_factory,
            epoch=epoch,
            config=config,
            queue_capacity=queue_capacity,
            workers=workers,
            max_attempts=max_attempts,
            default_deadline_s=default_deadline_s,
            fault_probabilities=fault_probabilities,
            fault_seed=fault_seed,
            fault_attempts=fault_attempts,
        )

    return factory
