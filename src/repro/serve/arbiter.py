"""Global NUMA-node arbitration for concurrent jobs.

Two layers:

* :class:`LeaseLedger` — pure, synchronous bookkeeping of which NUMA
  nodes are free and which job leases which disjoint node subset.  Grant
  selection is *topology-proximate*: the lease grows outward from a seed
  node along the machine's distance matrix (same-socket nodes before
  cross-socket ones), and a caller-supplied ``preferred`` node — typically
  the fastest node from the tenant's previous PTT history — seeds the
  growth.  Being pure state, the ledger is what the Hypothesis property
  tests drive.

* :class:`NodeArbiter` — the asyncio wrapper adding a strict-FIFO wait
  queue on top: a job blocks in :meth:`NodeArbiter.acquire` until it is
  at the head of the line *and* enough nodes are free.  Head-of-line
  blocking is deliberate — it trades a little packing efficiency for a
  hard no-starvation guarantee (no later, smaller job can overtake a
  waiting large one indefinitely).

Invariants (property-tested):

* active leases are pairwise disjoint;
* every leased node belongs to the machine's node set;
* free ∪ leased is exactly the machine's node set at all times;
* grants happen in submission order (strict FIFO ⇒ no starvation).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass

from repro.serve.protocol import LeaseError
from repro.topology.affinity import NodeMask
from repro.topology.distances import DistanceMatrix
from repro.topology.machine import MachineTopology

__all__ = ["Lease", "LeaseLedger", "NodeArbiter"]


@dataclass(frozen=True)
class Lease:
    """One active grant: ``job_id`` exclusively owns ``mask``'s nodes."""

    job_id: str
    mask: NodeMask

    @property
    def nodes(self) -> list[int]:
        return self.mask.indices()


class LeaseLedger:
    """Synchronous free/leased bookkeeping with topology-aware growth."""

    def __init__(self, topology: MachineTopology, distances: DistanceMatrix | None = None):
        if distances is None:
            distances = DistanceMatrix.from_topology(topology)
        if distances.num_nodes != topology.num_nodes:
            raise LeaseError(
                f"distance matrix covers {distances.num_nodes} nodes but the "
                f"machine has {topology.num_nodes}"
            )
        self.topology = topology
        self.distances = distances
        self._free: set[int] = set(topology.node_ids())
        self._leases: dict[str, Lease] = {}

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    def leases(self) -> dict[str, Lease]:
        """Snapshot of all active leases."""
        return dict(self._leases)

    def lease_of(self, job_id: str) -> Lease | None:
        return self._leases.get(job_id)

    def lease_map(self) -> dict[int, str | None]:
        """Per-node owner map: node id → holding job id (or ``None``)."""
        owner: dict[int, str | None] = {n: None for n in self.topology.node_ids()}
        for lease in self._leases.values():
            for node in lease.mask.indices():
                owner[node] = lease.job_id
        return owner

    def can_grant(self, nodes_wanted: int) -> bool:
        self._check_wanted(nodes_wanted)
        return nodes_wanted <= len(self._free)

    # ------------------------------------------------------------------
    def grant(
        self, job_id: str, nodes_wanted: int, preferred: int | None = None
    ) -> NodeMask | None:
        """Try to lease ``nodes_wanted`` disjoint nodes to ``job_id``.

        Returns the granted mask, or ``None`` when not enough nodes are
        free (the caller keeps the job waiting).  Raises
        :class:`LeaseError` for requests that can never succeed.
        """
        self._check_wanted(nodes_wanted)
        if job_id in self._leases:
            raise LeaseError(f"job {job_id!r} already holds a lease")
        if preferred is not None and not (0 <= preferred < self.num_nodes):
            raise LeaseError(
                f"preferred node {preferred} outside the machine's "
                f"{self.num_nodes}-node set"
            )
        if nodes_wanted > len(self._free):
            return None
        seed = self._seed_node(preferred)
        chosen = self._grow(seed, nodes_wanted)
        mask = NodeMask.from_indices(chosen, self.num_nodes)
        self._free -= set(chosen)
        self._leases[job_id] = Lease(job_id=job_id, mask=mask)
        return mask

    def release(self, job_id: str) -> NodeMask:
        """Return ``job_id``'s nodes to the free pool."""
        lease = self._leases.pop(job_id, None)
        if lease is None:
            raise LeaseError(f"job {job_id!r} holds no lease")
        self._free |= set(lease.mask.indices())
        return lease.mask

    # ------------------------------------------------------------------
    def _seed_node(self, preferred: int | None) -> int:
        """Where lease growth starts: the preferred node if free, else the
        free node nearest to it, else the lowest free node id."""
        assert self._free
        if preferred is None:
            return min(self._free)
        if preferred in self._free:
            return preferred
        row = self.distances.matrix[preferred]
        return min(self._free, key=lambda n: (float(row[n]), n))

    def _grow(self, seed: int, count: int) -> list[int]:
        """Topology-proximate growth: free nodes by distance from the seed
        (the seed first, then same-socket before cross-socket), ties by id."""
        row = self.distances.matrix[seed]
        ordered = sorted(self._free, key=lambda n: (float(row[n]), n != seed, n))
        return ordered[:count]

    def _check_wanted(self, nodes_wanted: int) -> None:
        if not isinstance(nodes_wanted, int) or nodes_wanted < 1:
            raise LeaseError(f"a lease needs at least one node, got {nodes_wanted!r}")
        if nodes_wanted > self.num_nodes:
            raise LeaseError(
                f"lease of {nodes_wanted} node(s) can never fit a "
                f"{self.num_nodes}-node machine"
            )


class NodeArbiter:
    """Asyncio arbiter: strict-FIFO waiting on top of a :class:`LeaseLedger`."""

    def __init__(self, ledger: LeaseLedger):
        self.ledger = ledger
        self._cond = asyncio.Condition()
        self._line: deque[str] = deque()

    @property
    def waiting(self) -> list[str]:
        """Job ids currently blocked in :meth:`acquire`, oldest first."""
        return list(self._line)

    async def acquire(
        self, job_id: str, nodes_wanted: int, preferred: int | None = None
    ) -> NodeMask:
        """Block until ``job_id`` heads the line and its lease fits.

        Impossible requests (more nodes than the machine has) raise
        immediately instead of deadlocking the line.
        """
        # validate before queueing so a hopeless request never blocks others
        self.ledger._check_wanted(nodes_wanted)
        async with self._cond:
            self._line.append(job_id)
            try:
                await self._cond.wait_for(
                    lambda: self._line[0] == job_id
                    and self.ledger.can_grant(nodes_wanted)
                )
                mask = self.ledger.grant(job_id, nodes_wanted, preferred)
                assert mask is not None  # guaranteed by the wait predicate
            finally:
                self._line.remove(job_id)
                # the head changed (grant or cancellation): wake the next waiter
                self._cond.notify_all()
            return mask

    async def release(self, job_id: str) -> NodeMask:
        """Free ``job_id``'s nodes and wake whoever can now be granted."""
        async with self._cond:
            mask = self.ledger.release(job_id)
            self._cond.notify_all()
            return mask

    async def reclaim(self, job_id: str) -> NodeMask | None:
        """Take back a lease whose owner died (crash, disconnect).

        Unlike :meth:`release` this tolerates a job that never got (or
        already returned) its lease — the recovery path cannot know how
        far the owner got before dying.  Returns the reclaimed mask, or
        ``None`` when there was nothing to reclaim.
        """
        async with self._cond:
            if self.ledger.lease_of(job_id) is None:
                return None
            mask = self.ledger.release(job_id)
            self._cond.notify_all()
            return mask
