"""CPU and NUMA-node affinity masks plus OpenMP ``proc_bind`` policies.

``CpuMask``/``NodeMask`` wrap an integer bitmap the same way the Linux
``cpu_set_t`` and the ILAN ``node_mask`` taskloop parameter do: bit *i* set
means core/node *i* is eligible.  The masks are immutable value types.

``proc_bind_close`` and ``proc_bind_spread`` reproduce the two built-in
OpenMP affinity policies the paper contrasts ILAN against: *close* packs
threads onto consecutive cores, *spread* distributes them as sparsely as
possible across the topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import TopologyError
from repro.topology.machine import MachineTopology, contiguous_ranges

__all__ = ["BitMask", "CpuMask", "NodeMask", "proc_bind_close", "proc_bind_spread"]


@dataclass(frozen=True)
class BitMask:
    """Immutable bitmap over ``width`` slots (cores or NUMA nodes)."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise TopologyError(f"mask width must be positive, got {self.width}")
        if self.bits < 0:
            raise TopologyError("mask bits must be non-negative")
        if self.bits >> self.width:
            raise TopologyError(
                f"mask 0x{self.bits:x} has bits set beyond width {self.width}"
            )

    # -- constructors ---------------------------------------------------
    @classmethod
    def empty(cls, width: int) -> "BitMask":
        return cls(bits=0, width=width)

    @classmethod
    def full(cls, width: int) -> "BitMask":
        return cls(bits=(1 << width) - 1, width=width)

    @classmethod
    def from_indices(cls, indices: Iterable[int], width: int) -> "BitMask":
        bits = 0
        for i in indices:
            if not (0 <= i < width):
                raise TopologyError(f"index {i} out of range for width {width}")
            bits |= 1 << i
        return cls(bits=bits, width=width)

    # -- queries ----------------------------------------------------------
    def indices(self) -> list[int]:
        """Set bit positions in increasing order."""
        return [i for i in range(self.width) if self.bits >> i & 1]

    def count(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def first(self) -> int:
        """Lowest set index; raises on an empty mask."""
        if self.bits == 0:
            raise TopologyError("mask is empty")
        return (self.bits & -self.bits).bit_length() - 1

    # -- algebra ----------------------------------------------------------
    def is_subset(self, other: "BitMask") -> bool:
        self._check_width(other)
        return self.bits & ~other.bits == 0

    def _check_width(self, other: "BitMask") -> None:
        if self.width != other.width:
            raise TopologyError(f"mask width mismatch: {self.width} vs {other.width}")

    # -- dunder -----------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return self.count()

    def __str__(self) -> str:
        if self.bits == 0:
            return "{}"
        parts = [
            f"{lo}" if lo == hi else f"{lo}-{hi}"
            for lo, hi in contiguous_ranges(self.indices())
        ]
        return "{" + ",".join(parts) + "}"


class CpuMask(BitMask):
    """Bitmap of eligible cores (1 bit per core)."""


class NodeMask(BitMask):
    """Bitmap of eligible NUMA nodes: ILAN's per-taskloop ``node_mask``."""

    @classmethod
    def for_topology(cls, topology: MachineTopology) -> "NodeMask":
        """Full mask covering every node of ``topology``."""
        return cls.full(topology.num_nodes)

    def cores(self, topology: MachineTopology) -> list[int]:
        """All core ids belonging to the selected nodes, ascending."""
        if self.width != topology.num_nodes:
            raise TopologyError(
                f"node mask width {self.width} does not match topology with "
                f"{topology.num_nodes} nodes"
            )
        out: list[int] = []
        for node_id in self.indices():
            out.extend(topology.cores_of_node(node_id))
        return sorted(out)


def proc_bind_close(topology: MachineTopology, num_threads: int) -> list[int]:
    """OpenMP ``proc_bind(close)``: pack threads onto consecutive cores.

    Returns the core id for each thread; threads wrap around when
    ``num_threads`` exceeds the core count (oversubscription).
    """
    _check_threads(num_threads)
    n = topology.num_cores
    return [t % n for t in range(num_threads)]


def proc_bind_spread(topology: MachineTopology, num_threads: int) -> list[int]:
    """OpenMP ``proc_bind(spread)``: distribute threads sparsely.

    Threads are dealt round-robin across NUMA nodes, then packed within
    each node, approximating the LLVM runtime's spread partitioning.
    """
    _check_threads(num_threads)
    per_node: list[list[int]] = [list(topology.cores_of_node(n)) for n in topology.node_ids()]
    placement: list[int] = []
    cursor = [0] * topology.num_nodes
    node = 0
    for _ in range(num_threads):
        # find next node with spare cores, else wrap (oversubscription)
        for probe in range(topology.num_nodes):
            cand = (node + probe) % topology.num_nodes
            if cursor[cand] < len(per_node[cand]):
                node = cand
                break
        else:
            cursor = [0] * topology.num_nodes
        placement.append(per_node[node][cursor[node] % len(per_node[node])])
        cursor[node] += 1
        node = (node + 1) % topology.num_nodes
    return placement


def _check_threads(num_threads: int) -> None:
    if num_threads < 1:
        raise TopologyError(f"num_threads must be >= 1, got {num_threads}")
