"""Cache-reuse model: how much memory traffic locality can save.

The simulator does not model individual cache lines.  Instead each
taskloop declares a *reuse potential* ``r`` in ``[0, 1]``: the fraction of
its memory traffic that hits in the node-level cache hierarchy (L3 of the
CCDs plus hot DRAM pages) when a chunk re-executes on the node that touched
its data last.  The achieved saving scales with the measured last-touch
locality of the chunk (see :mod:`repro.memory.access`) and with the
capacity factor of this module, which discounts ``r`` when the chunk's
working set exceeds the node's aggregate L3 (caches cannot hold what does
not fit).  ``_Encounter.start`` (:mod:`repro.runtime.executor`) computes
the memory time a chunk keeps on ``node``:

    mem_time * (1 - r * min(last_touch_fraction, 1) * capacity_factor(node))
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryModelError
from repro.topology.machine import MachineTopology

__all__ = ["CacheModel"]


@dataclass(frozen=True)
class CacheModel:
    """Per-node aggregate cache capacity and its capacity factor.

    Attributes
    ----------
    node_l3_bytes:
        Aggregate L3 capacity per NUMA node (sum over the node's CCDs).
    """

    node_l3_bytes: tuple[int, ...]

    @staticmethod
    def from_topology(topology: MachineTopology) -> "CacheModel":
        per_node = []
        for node in topology.nodes:
            per_node.append(sum(topology.ccds[c].l3_bytes for c in node.ccd_ids))
        return CacheModel(node_l3_bytes=tuple(per_node))

    @property
    def num_nodes(self) -> int:
        return len(self.node_l3_bytes)

    def capacity_factor(self, node: int, working_set_bytes: float) -> float:
        """Fraction of the working set that fits in the node's caches.

        1.0 when it fits entirely, ``capacity / working_set`` otherwise.
        """
        if not (0 <= node < self.num_nodes):
            raise MemoryModelError(f"unknown node {node}")
        if working_set_bytes < 0:
            raise MemoryModelError("working set must be non-negative")
        if working_set_bytes == 0:
            return 1.0
        return min(1.0, self.node_l3_bytes[node] / working_set_bytes)
