"""Worker threads pinned 1:1 to cores.

The ILAN implementation pins logical OpenMP threads to physical cores so
that performance tracing can attribute measurements to cores and NUMA
nodes; the simulated runtime does the same.  A :class:`WorkerPool` is the
set of workers participating in one taskloop execution (the "active
threads" of the current configuration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeModelError
from repro.runtime.queues import WorkQueue
from repro.topology.machine import MachineTopology

__all__ = ["Worker", "WorkerPool"]


@dataclass
class Worker:
    """One OpenMP worker thread pinned to a core."""

    worker_id: int
    core_id: int
    node_id: int
    queue: WorkQueue

    def __post_init__(self) -> None:
        if self.queue.owner_id != self.core_id:
            raise RuntimeModelError(
                f"worker queue owner {self.queue.owner_id} != core {self.core_id}"
            )


class WorkerPool:
    """Workers of one taskloop execution, indexed by core id.

    Workers are created for the plan's active core list; lookups by node
    support the hierarchical steal policy's locality checks.  The pool
    listens to every queue's empty/non-empty transitions and maintains
    O(1)-updatable victim-candidate sets (globally and per node) so steal
    attempts never scan all workers.
    """

    def __init__(self, topology: MachineTopology, core_ids: list[int], *, owner_lifo: bool = True):
        if not core_ids:
            raise RuntimeModelError("a worker pool needs at least one core")
        if len(set(core_ids)) != len(core_ids):
            raise RuntimeModelError("duplicate core ids in worker pool")
        self.topology = topology
        self.workers: list[Worker] = []
        self.by_core: dict[int, Worker] = {}
        self.by_node: dict[int, list[Worker]] = {}
        # core ids whose queues currently hold work
        self.nonempty: set[int] = set()
        self.nonempty_by_node: dict[int, set[int]] = {}
        for wid, core in enumerate(sorted(core_ids)):
            node = topology.node_of_core(core)
            worker = Worker(
                worker_id=wid,
                core_id=core,
                node_id=node,
                queue=WorkQueue(core, owner_lifo=owner_lifo),
            )
            worker.queue.listener = self
            self.workers.append(worker)
            self.by_core[core] = worker
            self.by_node.setdefault(node, []).append(worker)
            self.nonempty_by_node.setdefault(node, set())

    # -- QueueListener ---------------------------------------------------
    def queue_nonempty(self, owner_id: int) -> None:
        self.nonempty.add(owner_id)
        self.nonempty_by_node[self.by_core[owner_id].node_id].add(owner_id)

    def queue_empty(self, owner_id: int) -> None:
        self.nonempty.discard(owner_id)
        self.nonempty_by_node[self.by_core[owner_id].node_id].discard(owner_id)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.workers)

    def __iter__(self):
        return iter(self.workers)

    def core_ids(self) -> list[int]:
        return [w.core_id for w in self.workers]

    def node_ids(self) -> list[int]:
        return sorted(self.by_node)

    def worker_for_core(self, core_id: int) -> Worker:
        try:
            return self.by_core[core_id]
        except KeyError:
            raise RuntimeModelError(f"core {core_id} is not part of this pool") from None

    def node_queues_empty(self, node_id: int) -> bool:
        """True when every queue of ``node_id``'s workers is empty."""
        return not self.nonempty_by_node.get(node_id)

    def any_work(self) -> bool:
        """True when any queue in the pool holds work."""
        return bool(self.nonempty)
