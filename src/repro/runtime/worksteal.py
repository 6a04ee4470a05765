"""Work acquisition: own-queue pops and the steal policies.

Three policies cover the schedulers in the paper's evaluation:

* :class:`RandomStealPolicy` — the LLVM-default tasking scheduler: a worker
  pops its own queue LIFO and otherwise steals from uniformly random
  victims with no regard for topology ("placing initial tasks onto
  selected queues arbitrarily and enabling idle threads to steal tasks
  without considering NUMA topology", Section 3).
* :class:`HierarchicalStealPolicy` — ILAN's two-level policy: steal within
  the worker's NUMA node first; only when the entire node is out of queued
  work, and only when the taskloop runs with ``steal_policy=full``, take a
  NUMA-stealable (non-strict) task from a remote node.
* :class:`NoStealPolicy` — static work sharing: own queue only.

``acquire`` returns the chunk together with the scheduling overhead the
acquisition costs; the executor charges it to the task's start.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.runtime.overhead import OverheadLedger, OverheadParams
from repro.runtime.task import Chunk
from repro.runtime.threads import Worker, WorkerPool

__all__ = [
    "Acquisition",
    "StealPolicy",
    "RandomStealPolicy",
    "HierarchicalStealPolicy",
    "NoStealPolicy",
]


@dataclass
class Acquisition:
    """A successfully acquired task and how it was obtained."""

    chunk: Chunk
    source: str  # "own" | "steal_local" | "steal_remote"
    overhead: float
    victim_core: int


class StealPolicy(ABC):
    """Decides where an idle worker gets its next task from."""

    name: str = "abstract"

    def acquire(
        self,
        worker: Worker,
        pool: WorkerPool,
        rng: np.random.Generator,
        params: OverheadParams,
        ledger: OverheadLedger,
    ) -> Acquisition | None:
        """Next task for ``worker``, or ``None`` if nothing is available.

        Tries the worker's own queue first (charging the dequeue cost),
        then delegates to :meth:`steal`.
        """
        chunk = worker.queue.pop_own()
        if chunk is not None:
            ledger.charge("dequeue", params.dequeue)
            return Acquisition(
                chunk=chunk, source="own", overhead=params.dequeue, victim_core=worker.core_id
            )
        return self.steal(worker, pool, rng, params, ledger)

    @abstractmethod
    def steal(
        self,
        worker: Worker,
        pool: WorkerPool,
        rng: np.random.Generator,
        params: OverheadParams,
        ledger: OverheadLedger,
    ) -> Acquisition | None:
        """Attempt to steal a task for ``worker``."""

    def exhausted(self, worker: Worker, pool: WorkerPool) -> bool:
        """Whether every later :meth:`acquire` of ``worker`` in this
        encounter must fail, drawing no random number and charging nothing.

        Queues only drain inside an encounter, so a true answer stays true
        until the encounter ends, and the executor stops asking such a
        worker.  The default promises nothing.
        """
        return False

    # ------------------------------------------------------------------
    @staticmethod
    def _take(
        worker: Worker,
        victim: Worker,
        chunk: Chunk,
        probes: int,
        params: OverheadParams,
        ledger: OverheadLedger,
        pool: WorkerPool,
    ) -> Acquisition:
        remote = victim.node_id != worker.node_id
        cost = params.steal_remote if remote else params.steal_local
        fail_cost = probes * params.steal_fail
        ledger.charge("steal_remote" if remote else "steal_local", cost)
        if probes:
            ledger.charge("steal_fail", fail_cost, count=probes)
        chunk.stolen = True
        return Acquisition(
            chunk=chunk,
            source="steal_remote" if remote else "steal_local",
            overhead=cost + fail_cost,
            victim_core=victim.core_id,
        )


class RandomStealPolicy(StealPolicy):
    """LLVM-default stealing: uniformly random victims, topology-blind."""

    name = "random"

    def steal(self, worker, pool, rng, params, ledger):
        candidates = pool.nonempty - {worker.core_id}
        if not candidates:
            return None
        # a real thief probes random workers until it finds a non-empty
        # queue; the expected number of misses scales with the fraction of
        # empty queues
        empties = len(pool) - 1 - len(candidates)
        probes = int(rng.integers(0, empties + 1)) if empties > 0 else 0
        victim_core = (
            next(iter(candidates))
            if len(candidates) == 1
            else sorted(candidates)[int(rng.integers(len(candidates)))]
        )
        victim = pool.by_core[victim_core]
        chunk = victim.queue.steal()
        if chunk is None:
            return None
        return self._take(worker, victim, chunk, probes, params, ledger, pool)


class HierarchicalStealPolicy(StealPolicy):
    """ILAN's hierarchical stealing.

    Intra-node steals are unrestricted (this is how a node's chunks spread
    from the primary thread's queue to the node's workers).  Inter-node
    steals require all three of: the taskloop runs with
    ``steal_policy=full`` (``allow_inter_node``), the thief's node is
    completely out of queued work, and the victim's exposed task is not
    NUMA-strict.
    """

    name = "hierarchical"

    def __init__(self, allow_inter_node: bool):
        self.allow_inter_node = allow_inter_node

    def steal(self, worker, pool, rng, params, ledger):
        local = pool.nonempty_by_node[worker.node_id] - {worker.core_id}
        if local:
            victim_core = (
                next(iter(local))
                if len(local) == 1
                else sorted(local)[int(rng.integers(len(local)))]
            )
            victim = pool.by_core[victim_core]
            chunk = victim.queue.steal()
            if chunk is not None:
                return self._take(worker, victim, chunk, 0, params, ledger, pool)
        if not self.allow_inter_node:
            return None
        if not pool.node_queues_empty(worker.node_id):
            return None
        remote = sorted(pool.nonempty - pool.nonempty_by_node[worker.node_id])
        if not remote:
            return None
        probes = 0
        order = rng.permutation(len(remote)) if len(remote) > 1 else range(len(remote))
        for idx in order:
            victim = pool.by_core[remote[int(idx)]]
            chunk = victim.queue.steal(predicate=lambda c: not c.strict)
            if chunk is not None:
                return self._take(worker, victim, chunk, probes, params, ledger, pool)
            probes += 1
        if probes:
            ledger.charge("steal_fail", probes * params.steal_fail, count=probes)
        return None

    def exhausted(self, worker, pool):
        # strict: with the node drained, acquire pops nothing, finds no local
        # victim and returns before any draw or charge
        return not self.allow_inter_node and pool.node_queues_empty(worker.node_id)


class NoStealPolicy(StealPolicy):
    """Static work sharing: each thread only runs its own partition."""

    name = "none"

    def steal(self, worker, pool, rng, params, ledger):
        return None
