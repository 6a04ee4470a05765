"""Seeded shard-level fault injection: the ``shard_crash`` fault.

PR 3's :class:`~repro.serve.faults.FaultPlan` decides per-*job* faults;
a federation adds the coarser failure domain — a whole shard dies, taking
its worker pool, its admission queue and its leases with it.
:class:`ShardFaultPlan` assigns that fate the same way: each shard id is
hashed into its own named RNG substream (``stream(seed, "fed.fault",
shard_id)``), one draw decides *whether* the shard crashes and a second
decides *after how many router placements* it does.  Crash points are
counted in placements, not seconds, so a replayed run kills the same
shard at the same logical instant regardless of wall-clock timing — the
byte-reproducibility of the federation smoke rests on this.

The plan is pure decision state plus a tally; the router applies the
crash (the shard stops silently and its orphans wait for the failure
detector to confirm the death) and reports it back through
:meth:`ShardFaultPlan.record_crash`.
"""

from __future__ import annotations

from repro.errors import ServeError
from repro.sim.rng import stream

__all__ = ["SHARD_CRASH", "ShardFaultPlan"]

#: The fault-kind name, as it appears in snapshots and smoke reports.
SHARD_CRASH = "shard_crash"


class ShardFaultPlan:
    """Seeded, deterministic per-shard crash schedule."""

    def __init__(
        self,
        crash_probability: float,
        *,
        seed: int = 0,
        min_placements: int = 1,
        max_placements: int = 4,
    ):
        if not (0.0 <= float(crash_probability) <= 1.0):
            raise ServeError(
                f"shard crash probability must be in [0, 1], "
                f"got {crash_probability}"
            )
        if min_placements < 1:
            raise ServeError(
                f"a shard crash needs at least one placement to trigger, "
                f"got min_placements={min_placements}"
            )
        if max_placements < min_placements:
            raise ServeError(
                f"max_placements ({max_placements}) below min_placements "
                f"({min_placements})"
            )
        self.crash_probability = float(crash_probability)
        self.seed = int(seed)
        self.min_placements = int(min_placements)
        self.max_placements = int(max_placements)
        self.crashed: list[str] = []
        self._decisions: dict[str, int | None] = {}
        #: Explicit crash points, set by a scenario after construction
        #: (``plan.scheduled["shard-1"] = 7``): they override the
        #: probabilistic draw for the named shards, so a scenario can say
        #: "shard-1 dies at placement 7" exactly.
        self.scheduled: dict[str, int] = {}

    # ------------------------------------------------------------------
    def decide(self, shard_id: str) -> int | None:
        """The placement count at which ``shard_id`` dies, or ``None``.

        Memoised and seed-deterministic: the decision depends only on
        ``(seed, shard_id)`` — unless an explicit schedule entry exists,
        which wins outright (and costs no RNG draw, so scheduling one
        shard never perturbs another's fate).
        """
        if shard_id in self.scheduled:
            return self.scheduled[shard_id]
        if shard_id not in self._decisions:
            rng = stream(self.seed, "fed.fault", shard_id)
            decision: int | None = None
            if float(rng.random()) < self.crash_probability:
                decision = int(
                    rng.integers(self.min_placements, self.max_placements + 1)
                )
            self._decisions[shard_id] = decision
        return self._decisions[shard_id]

    def should_crash(self, shard_id: str, placements: int) -> bool:
        """Whether the shard dies now, having absorbed ``placements``."""
        due = self.decide(shard_id)
        return due is not None and placements >= due

    def record_crash(self, shard_id: str) -> None:
        """Tally one applied shard death (surfaces in the snapshot)."""
        self.crashed.append(shard_id)

    # ------------------------------------------------------------------
    def decisions(self) -> dict[str, int | None]:
        """Every decision made so far: shard id → crash point (or None)."""
        return dict(sorted({**self._decisions, **self.scheduled}.items()))

    def to_wire(self) -> dict[str, object]:
        return {
            "kind": SHARD_CRASH,
            "crash_probability": self.crash_probability,
            "seed": self.seed,
            "min_placements": self.min_placements,
            "max_placements": self.max_placements,
            "decisions": self.decisions(),
            "scheduled": dict(sorted(self.scheduled.items())),
            "crashed": list(self.crashed),
        }

    def __repr__(self) -> str:
        return (
            f"ShardFaultPlan({self.crash_probability:g}, seed={self.seed}, "
            f"placements=[{self.min_placements}, {self.max_placements}])"
        )
