"""Deterministic failure detector for the federation fleet.

Production membership protocols (SWIM, Raft's leader leases) run on wall
clocks; this repo's determinism contract forbids that, so the detector
here runs on the router's **logical clock** — the monotonically
increasing placement counter.  Every ``heartbeat_every`` placements the
router polls each registered member and feeds the result to
:meth:`Membership.poll`:

* a member that answered resets its missed-poll counter to zero;
* a member that did not answer increments it.

A member whose counter reaches ``suspect_after`` consecutive missed
polls becomes SUSPECT (excluded from new placements but still on the
ring — a suspect that answers a later poll is fully reinstated).  At
``confirm_after`` missed polls the member is confirmed DEAD and the
transition is returned to the caller, which removes it from the ring,
adopts its orphans and migrates its tenant state.  Counting *polls*
rather than clock deltas means the thresholds keep their meaning when
``heartbeat_every`` changes: "3 missed heartbeats" is three missed
heartbeats whether they are 5 or 50 placements apart.

State machine (strictly one-directional except SUSPECT → ALIVE)::

    ALIVE ──missed >= suspect_after──> SUSPECT ──missed >= confirm_after──> DEAD
      ^                                   │
      └────────── answered poll ──────────┘

    DEAD ──supervised respawn (new epoch)──> fresh ALIVE record

Every transition is recorded in an ordered event log (logical time,
member, old state, new state) so two same-seed runs produce
byte-identical membership histories.  The class touches no RNG and no
wall clock: it is a pure function of the poll sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable

__all__ = ["MemberState", "MemberRecord", "MembershipEvent", "Membership"]


class MemberState(Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class MemberRecord:
    """One member's view in the detector: identity, epoch and health."""

    member_id: str
    epoch: int
    state: MemberState = MemberState.ALIVE
    missed_polls: int = 0
    joined_at: int = 0  # logical time (placements) of admission
    ended_at: int | None = None  # logical time of death

    @property
    def instance_id(self) -> str:
        """Epoch-qualified identity; epoch 0 keeps the bare id
        (``shard-1``), later incarnations add ``@e<epoch>``."""
        if self.epoch == 0:
            return self.member_id
        return f"{self.member_id}@e{self.epoch}"

    def describe(self) -> dict[str, Any]:
        return {
            "member_id": self.member_id,
            "instance_id": self.instance_id,
            "epoch": self.epoch,
            "state": self.state.value,
            "missed_polls": self.missed_polls,
            "joined_at": self.joined_at,
            "ended_at": self.ended_at,
        }


@dataclass(frozen=True)
class MembershipEvent:
    """One state transition, stamped with the logical clock."""

    at: int  # placements when the transition happened
    member_id: str
    epoch: int
    old_state: str
    new_state: str

    def describe(self) -> dict[str, Any]:
        return {
            "at": self.at,
            "member_id": self.member_id,
            "epoch": self.epoch,
            "old": self.old_state,
            "new": self.new_state,
        }


class Membership:
    """Missed-heartbeat failure detector over the router's logical clock."""

    def __init__(
        self,
        *,
        heartbeat_every: int = 5,
        suspect_after: int = 2,
        confirm_after: int = 3,
    ):
        if heartbeat_every < 1:
            raise ValueError(f"heartbeat_every must be >= 1, got {heartbeat_every}")
        if suspect_after < 1:
            raise ValueError(f"suspect_after must be >= 1, got {suspect_after}")
        if confirm_after <= suspect_after:
            raise ValueError(
                f"confirm_after ({confirm_after}) must exceed "
                f"suspect_after ({suspect_after}): a member must pass "
                "through SUSPECT before it can be confirmed dead"
            )
        self.heartbeat_every = heartbeat_every
        self.suspect_after = suspect_after
        self.confirm_after = confirm_after
        #: Live view: current incarnation of each member id.
        self._members: dict[str, MemberRecord] = {}
        #: Past (dead) incarnations, in retirement order.
        self._retired: list[MemberRecord] = []
        self._events: list[MembershipEvent] = []
        # monotone counters for the metrics snapshot
        self.polls = 0
        self.suspects_raised = 0
        self.suspects_cleared = 0
        self.deaths_confirmed = 0
        self.joins = 0

    # ------------------------------------------------------------------
    # membership changes
    def register(self, member_id: str, *, epoch: int = 0, at: int = 0) -> MemberRecord:
        """Admit a member (initial fleet, live join, or respawn rejoin).

        A respawn must carry an epoch strictly greater than the dead
        incarnation's — stale instances can never re-register.
        """
        existing = self._members.get(member_id)
        if existing is not None:
            if existing.state in (MemberState.ALIVE, MemberState.SUSPECT):
                raise ValueError(f"member {member_id!r} is already registered")
            if epoch <= existing.epoch:
                raise ValueError(
                    f"member {member_id!r} rejoining at epoch {epoch} but "
                    f"epoch {existing.epoch} already {existing.state.value}"
                )
            self._retired.append(existing)
        record = MemberRecord(member_id=member_id, epoch=epoch, joined_at=at)
        self._members[member_id] = record
        self._events.append(
            MembershipEvent(at, member_id, epoch, "none", MemberState.ALIVE.value)
        )
        self.joins += 1
        return record

    # ------------------------------------------------------------------
    # failure detection
    def due(self, placements: int) -> bool:
        """Whether the router should run a heartbeat poll at this tick."""
        return placements > 0 and placements % self.heartbeat_every == 0

    def poll(self, responders: Iterable[str], *, at: int) -> list[MemberRecord]:
        """One heartbeat round: ``responders`` answered, everyone else missed.

        Returns the members whose death was *confirmed this round*, in
        sorted member-id order (deterministic recovery ordering).  Raising
        or clearing suspicion is recorded in the event log and counters
        but needs no caller action.
        """
        self.polls += 1
        answered = set(responders)
        confirmed: list[MemberRecord] = []
        for member_id in sorted(self._members):
            record = self._members[member_id]
            if record.state not in (MemberState.ALIVE, MemberState.SUSPECT):
                continue
            if member_id in answered:
                if record.state is MemberState.SUSPECT:
                    self._transition(record, MemberState.ALIVE, at)
                    self.suspects_cleared += 1
                record.missed_polls = 0
                continue
            record.missed_polls += 1
            if (
                record.state is MemberState.ALIVE
                and record.missed_polls >= self.suspect_after
            ):
                self._transition(record, MemberState.SUSPECT, at)
                self.suspects_raised += 1
            if (
                record.state is MemberState.SUSPECT
                and record.missed_polls >= self.confirm_after
            ):
                self._transition(record, MemberState.DEAD, at)
                record.ended_at = at
                self.deaths_confirmed += 1
                confirmed.append(record)
        return confirmed

    # ------------------------------------------------------------------
    # queries
    def get(self, member_id: str) -> MemberRecord | None:
        return self._members.get(member_id)

    def placeable(self) -> list[str]:
        """Members eligible for new placements (ALIVE only), sorted."""
        return sorted(
            m for m, r in self._members.items() if r.state is MemberState.ALIVE
        )

    def suspects(self) -> list[str]:
        return sorted(
            m for m, r in self._members.items() if r.state is MemberState.SUSPECT
        )

    @property
    def events(self) -> list[MembershipEvent]:
        return list(self._events)

    # ------------------------------------------------------------------
    def _transition(self, record: MemberRecord, new: MemberState, at: int) -> None:
        self._events.append(
            MembershipEvent(at, record.member_id, record.epoch, record.state.value, new.value)
        )
        record.state = new

    def describe(self) -> dict[str, Any]:
        """JSON-able snapshot: live view, retirees, counters, event log."""
        return {
            "config": {
                "heartbeat_every": self.heartbeat_every,
                "suspect_after": self.suspect_after,
                "confirm_after": self.confirm_after,
            },
            "members": {
                member_id: self._members[member_id].describe()
                for member_id in sorted(self._members)
            },
            "retired": [record.describe() for record in self._retired],
            "counters": {
                "polls": self.polls,
                "joins": self.joins,
                # no member leaves voluntarily; the key stays so every
                # snapshot keeps its shape
                "leaves": 0,
                "suspects_raised": self.suspects_raised,
                "suspects_cleared": self.suspects_cleared,
                "deaths_confirmed": self.deaths_confirmed,
            },
            "events": [event.describe() for event in self._events],
        }
