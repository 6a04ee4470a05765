"""Seeded consistent-hash ring with virtual nodes.

Placement is a pure function of ``(seed, member set, tenant)``: every
shard contributes ``vnodes`` ring points drawn from its own named RNG
substream (``stream(seed, "fed.ring", shard_id)``), and every tenant
hashes to one point the same way (``stream(seed, "fed.ring", tenant)``).
A tenant's owner is the first shard point clockwise from its own point;
its *preference order* keeps walking clockwise collecting distinct
shards, which is what the router falls back through when the owner is
dead or saturated.

The two properties the Hypothesis suite pins down:

* **balance** — with enough virtual nodes, tenant ownership spreads
  across shards within a constant factor of uniform;
* **minimal remap** — removing a shard moves only the tenants it owned
  (everyone else's clockwise walk is unchanged below their old owner),
  and adding a shard moves only the tenants the new shard now owns.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

from repro.errors import ServeError
from repro.sim.rng import stream

__all__ = ["ConsistentHashRing", "RingError"]

#: Ring positions are 64-bit; the ring is the circle Z / 2^64.
_RING_BITS = 64


class RingError(ServeError):
    """Invalid ring operation (unknown/duplicate member, empty ring)."""

    code = "ring_error"


class ConsistentHashRing:
    """Deterministic consistent hashing over named shard members."""

    def __init__(
        self,
        members: Iterable[str] = (),
        *,
        seed: int = 0,
        vnodes: int = 64,
    ):
        if vnodes < 1:
            raise RingError(f"a member needs at least one virtual node, got {vnodes}")
        self.seed = int(seed)
        self.vnodes = int(vnodes)
        #: sorted ring points: (position, member) — member breaks position ties
        self._points: list[tuple[int, str]] = []
        self._members: set[str] = set()
        self._tenant_points: dict[str, int] = {}
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------
    @property
    def members(self) -> list[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    # ------------------------------------------------------------------
    def _member_points(self, member: str) -> list[int]:
        rng = stream(self.seed, "fed.ring", member)
        return [int(p) for p in rng.integers(0, 2**_RING_BITS, size=self.vnodes,
                                             dtype="uint64")]

    def tenant_point(self, tenant: str) -> int:
        """The tenant's fixed position on the ring (memoised)."""
        point = self._tenant_points.get(tenant)
        if point is None:
            rng = stream(self.seed, "fed.ring", tenant)
            point = int(rng.integers(0, 2**_RING_BITS, dtype="uint64"))
            self._tenant_points[tenant] = point
        return point

    # ------------------------------------------------------------------
    def add(self, member: str) -> None:
        """Join ``member``: insert its virtual nodes (sorted-merge)."""
        if not member:
            raise RingError("ring member name must be non-empty")
        if member in self._members:
            raise RingError(f"ring member {member!r} already joined")
        self._members.add(member)
        for position in self._member_points(member):
            bisect.insort(self._points, (position, member))

    def remove(self, member: str) -> None:
        """Drop every virtual node of ``member`` (a confirmed death)."""
        if member not in self._members:
            raise RingError(f"ring member {member!r} is not on the ring")
        self._members.discard(member)
        self._points = [(p, m) for p, m in self._points if m != member]

    # ------------------------------------------------------------------
    def owner(self, tenant: str) -> str:
        """The shard owning ``tenant``: first point clockwise from its hash."""
        if not self._points:
            raise RingError("the ring has no members")
        position = self.tenant_point(tenant)
        idx = bisect.bisect_left(self._points, (position, ""))
        if idx == len(self._points):
            idx = 0  # wrap past the top of the circle
        return self._points[idx][1]

    def preference(self, tenant: str) -> list[str]:
        """Every member, ordered by the clockwise walk from the tenant.

        The first entry is :meth:`owner`; subsequent entries are the
        fallback shards in deterministic ring order (each member listed
        once, at its first point encountered).
        """
        if not self._points:
            raise RingError("the ring has no members")
        position = self.tenant_point(tenant)
        start = bisect.bisect_left(self._points, (position, ""))
        seen: list[str] = []
        seen_set: set[str] = set()
        n = len(self._points)
        for step in range(n):
            member = self._points[(start + step) % n][1]
            if member not in seen_set:
                seen_set.add(member)
                seen.append(member)
                if len(seen) == len(self._members):
                    break
        return seen

    def digest(self) -> str:
        """A short deterministic digest of ``(seed, vnodes, member set)``.

        Two routers agree on placement iff their digests match, so the
        membership snapshot carries this as a one-token fingerprint of
        the ring topology (cheap to compare across epochs and runs).
        """
        basis = f"{self.seed}:{self.vnodes}:" + ",".join(self.members)
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> dict[str, object]:
        """JSON-able summary for the federated metrics snapshot."""
        return {
            "seed": self.seed,
            "vnodes": self.vnodes,
            "members": self.members,
            "points": len(self._points),
            "digest": self.digest(),
        }

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(members={self.members}, seed={self.seed}, "
            f"vnodes={self.vnodes})"
        )
