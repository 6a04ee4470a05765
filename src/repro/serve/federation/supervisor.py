"""Supervised shard respawn: confirmed-dead shards come back at a new epoch.

The :class:`ShardSupervisor` is the federation's process manager.  When
the failure detector confirms a shard dead, the router hands the corpse
to the supervisor, which builds a **fresh incarnation** via the injected
factory — same ring name (``shard_id``), ``epoch + 1`` — and readmits it
through the normal join path.  The factory owns all construction detail
(topology, queue capacity, fault plan); the supervisor only decides
*whether* (respawn budget) and *at which epoch*.

Epoch discipline is the whole trick: the respawn's fault seed is derived
from the epoch-qualified instance id, so the new incarnation draws a
fresh crash schedule instead of re-dying on its predecessor's; and every
piece of per-shard state downstream (local-job index, fault decisions,
retired-metrics keys) is keyed by instance id, so a respawn can never
collide with its ghost.

Like everything in this package, the supervisor runs on logical time —
a respawn happens at a placement count, not a wall second — and its log
is part of the byte-reproducible run report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.federation.shard import ShardHandle

__all__ = ["RespawnRecord", "ShardSupervisor"]


@dataclass(frozen=True)
class RespawnRecord:
    """One supervised respawn, stamped with the logical clock."""

    at: int  # placements when the respawn happened
    shard_id: str
    old_epoch: int
    new_epoch: int

    def describe(self) -> dict[str, Any]:
        return {
            "at": self.at,
            "shard_id": self.shard_id,
            "old_epoch": self.old_epoch,
            "new_epoch": self.new_epoch,
        }


class ShardSupervisor:
    """Respawns confirmed-dead shards through an injected factory.

    ``factory(shard_id, epoch)`` must return a
    :class:`~repro.serve.federation.shard.ShardHandle` ready for
    :meth:`~repro.serve.federation.shard.ShardHandle.start`, which the
    respawn calls the way the router started the fleet (its worker pool,
    plus a listener when the fleet exposes its shards);
    ``max_respawns`` caps respawns **per shard id**
    so a shard whose workload is inherently lethal cannot flap forever
    (past the cap it stays dead and its tenants migrate permanently).
    """

    def __init__(
        self,
        factory: Callable[[str, int], "ShardHandle"],
        *,
        max_respawns: int = 3,
    ):
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        self._factory = factory
        self.max_respawns = max_respawns
        self._respawn_counts: dict[str, int] = {}
        self._log: list[RespawnRecord] = []

    # ------------------------------------------------------------------
    def can_respawn(self, shard_id: str) -> bool:
        return self._respawn_counts.get(shard_id, 0) < self.max_respawns

    async def respawn(
        self,
        shard_id: str,
        *,
        dead_epoch: int,
        at: int,
        expose: bool = False,
        host: str = "127.0.0.1",
    ) -> "ShardHandle | None":
        """Build and start the next incarnation (with its own listener on
        ``host`` when ``expose``), or ``None`` if over budget."""
        if not self.can_respawn(shard_id):
            return None
        new_epoch = dead_epoch + 1
        handle = self._factory(shard_id, new_epoch)
        if handle.epoch != new_epoch:
            raise ValueError(
                f"factory built {shard_id!r} at epoch {handle.epoch}, "
                f"supervisor asked for {new_epoch}"
            )
        await handle.start(expose=expose, host=host)
        self._respawn_counts[shard_id] = self._respawn_counts.get(shard_id, 0) + 1
        self._log.append(
            RespawnRecord(
                at=at, shard_id=shard_id, old_epoch=dead_epoch, new_epoch=new_epoch
            )
        )
        return handle

    # ------------------------------------------------------------------
    @property
    def respawns_total(self) -> int:
        return sum(self._respawn_counts.values())

    def describe(self) -> dict[str, Any]:
        return {
            "max_respawns": self.max_respawns,
            "respawns_total": self.respawns_total,
            "per_shard": dict(sorted(self._respawn_counts.items())),
            "log": [record.describe() for record in self._log],
        }
