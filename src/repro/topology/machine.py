"""Hierarchical machine model: sockets → NUMA nodes → CCDs → cores.

This is the simulated equivalent of the topology information the ILAN paper
obtains through *hwloc*.  The model mirrors the structure of the evaluation
platform (AMD EPYC 9354 "Zen 4"): each socket contains several NUMA nodes,
each NUMA node groups one or more Core Complex Dies (CCDs) that share an L3
cache, and each CCD contains a set of cores with private L1/L2 caches.

The topology is immutable after construction; all scheduler components
consume it read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import TopologyError

__all__ = [
    "Core",
    "CCD",
    "NumaNode",
    "Socket",
    "MachineTopology",
    "GIB",
    "MIB",
]

GIB = 1024**3
MIB = 1024**2


@dataclass(frozen=True)
class Core:
    """A physical core, the unit a worker thread is pinned to.

    Attributes
    ----------
    core_id:
        Global core index, dense in ``[0, machine.num_cores)``.
    ccd_id:
        Global index of the CCD (L3 group) containing this core.
    node_id:
        Global index of the NUMA node containing this core.
    socket_id:
        Index of the socket containing this core.
    base_speed:
        Relative execution speed (1.0 = nominal).  Static asymmetry such as
        a cluster-wide frequency offset can be expressed here; dynamic
        asymmetry is modelled by the interference layer instead.
    """

    core_id: int
    ccd_id: int
    node_id: int
    socket_id: int
    base_speed: float = 1.0


@dataclass(frozen=True)
class CCD:
    """A Core Complex Die: a group of cores sharing one L3 cache slice."""

    ccd_id: int
    node_id: int
    socket_id: int
    core_ids: tuple[int, ...]
    l3_bytes: int = 32 * MIB


@dataclass(frozen=True)
class NumaNode:
    """A NUMA node: cores grouped around one memory controller.

    ``mem_bandwidth`` is the peak local DRAM bandwidth of the node's memory
    controller in bytes/second; the contention model shares it between all
    tasks whose pages live on this node.
    """

    node_id: int
    socket_id: int
    ccd_ids: tuple[int, ...]
    core_ids: tuple[int, ...]
    mem_bytes: int = 96 * GIB
    mem_bandwidth: float = 40.0 * GIB

    @property
    def num_cores(self) -> int:
        return len(self.core_ids)

    @property
    def primary_core(self) -> int:
        """The node's primary core: ILAN enqueues node-bound tasks here."""
        return self.core_ids[0]


@dataclass(frozen=True)
class Socket:
    """A physical processor package containing several NUMA nodes."""

    socket_id: int
    node_ids: tuple[int, ...]


@dataclass(frozen=True)
class MachineTopology:
    """Immutable description of a simulated shared-memory machine.

    Build instances with :meth:`MachineTopology.build` (regular machines)
    or assemble the component tuples manually for irregular shapes; either
    way :meth:`validate` is invoked and raises :class:`TopologyError` on
    inconsistencies.
    """

    name: str
    sockets: tuple[Socket, ...]
    nodes: tuple[NumaNode, ...]
    ccds: tuple[CCD, ...]
    cores: tuple[Core, ...]
    _node_of_core: tuple[int, ...] = field(repr=False, default=())
    _ccd_of_core: tuple[int, ...] = field(repr=False, default=())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        *,
        name: str = "machine",
        num_sockets: int = 1,
        nodes_per_socket: int = 1,
        ccds_per_node: int = 1,
        cores_per_ccd: int = 1,
        l3_bytes: int = 32 * MIB,
        mem_bytes_per_node: int = 96 * GIB,
        mem_bandwidth_per_node: float = 40.0 * GIB,
        base_speed: float = 1.0,
    ) -> "MachineTopology":
        """Construct a regular topology.

        All counts must be >= 1.  Cores are numbered depth-first so that a
        NUMA node always owns a contiguous range of core ids, matching how
        hwloc enumerates cores on the Zen 4 evaluation platform.
        """
        for label, value in (
            ("num_sockets", num_sockets),
            ("nodes_per_socket", nodes_per_socket),
            ("ccds_per_node", ccds_per_node),
            ("cores_per_ccd", cores_per_ccd),
        ):
            if value < 1:
                raise TopologyError(f"{label} must be >= 1, got {value}")
        if l3_bytes <= 0 or mem_bytes_per_node <= 0 or mem_bandwidth_per_node <= 0:
            raise TopologyError("cache/memory sizes and bandwidth must be positive")
        if base_speed <= 0:
            raise TopologyError(f"base_speed must be positive, got {base_speed}")

        sockets: list[Socket] = []
        nodes: list[NumaNode] = []
        ccds: list[CCD] = []
        cores: list[Core] = []
        for s in range(num_sockets):
            socket_nodes: list[int] = []
            for _ in range(nodes_per_socket):
                node_id = len(nodes)
                node_ccds: list[int] = []
                node_cores: list[int] = []
                for _ in range(ccds_per_node):
                    ccd_id = len(ccds)
                    ccd_cores: list[int] = []
                    for _ in range(cores_per_ccd):
                        core_id = len(cores)
                        cores.append(
                            Core(
                                core_id=core_id,
                                ccd_id=ccd_id,
                                node_id=node_id,
                                socket_id=s,
                                base_speed=base_speed,
                            )
                        )
                        ccd_cores.append(core_id)
                        node_cores.append(core_id)
                    ccds.append(
                        CCD(
                            ccd_id=ccd_id,
                            node_id=node_id,
                            socket_id=s,
                            core_ids=tuple(ccd_cores),
                            l3_bytes=l3_bytes,
                        )
                    )
                    node_ccds.append(ccd_id)
                nodes.append(
                    NumaNode(
                        node_id=node_id,
                        socket_id=s,
                        ccd_ids=tuple(node_ccds),
                        core_ids=tuple(node_cores),
                        mem_bytes=mem_bytes_per_node,
                        mem_bandwidth=mem_bandwidth_per_node,
                    )
                )
                socket_nodes.append(node_id)
            sockets.append(Socket(socket_id=s, node_ids=tuple(socket_nodes)))

        return MachineTopology.from_components(
            name=name,
            sockets=tuple(sockets),
            nodes=tuple(nodes),
            ccds=tuple(ccds),
            cores=tuple(cores),
        )

    @staticmethod
    def from_components(
        *,
        name: str,
        sockets: tuple[Socket, ...],
        nodes: tuple[NumaNode, ...],
        ccds: tuple[CCD, ...],
        cores: tuple[Core, ...],
    ) -> "MachineTopology":
        """Assemble and validate a topology from explicit component tuples."""
        topo = MachineTopology(
            name=name,
            sockets=sockets,
            nodes=nodes,
            ccds=ccds,
            cores=cores,
            _node_of_core=tuple(c.node_id for c in cores),
            _ccd_of_core=tuple(c.ccd_id for c in cores),
        )
        topo.validate()
        return topo

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural consistency; raise :class:`TopologyError` if broken."""
        if not self.cores:
            raise TopologyError("topology has no cores")
        if not self.nodes:
            raise TopologyError("topology has no NUMA nodes")
        for i, core in enumerate(self.cores):
            if core.core_id != i:
                raise TopologyError(f"core ids must be dense; index {i} holds id {core.core_id}")
            if not (0 <= core.node_id < len(self.nodes)):
                raise TopologyError(f"core {i} references unknown node {core.node_id}")
            if not (0 <= core.ccd_id < len(self.ccds)):
                raise TopologyError(f"core {i} references unknown ccd {core.ccd_id}")
        for i, node in enumerate(self.nodes):
            if node.node_id != i:
                raise TopologyError(f"node ids must be dense; index {i} holds id {node.node_id}")
            if not node.core_ids:
                raise TopologyError(f"node {i} has no cores")
            for cid in node.core_ids:
                if self.cores[cid].node_id != i:
                    raise TopologyError(f"core {cid} listed in node {i} but points to node {self.cores[cid].node_id}")
            if not (0 <= node.socket_id < len(self.sockets)):
                raise TopologyError(f"node {i} references unknown socket {node.socket_id}")
        for i, ccd in enumerate(self.ccds):
            if ccd.ccd_id != i:
                raise TopologyError(f"ccd ids must be dense; index {i} holds id {ccd.ccd_id}")
            for cid in ccd.core_ids:
                if self.cores[cid].ccd_id != i:
                    raise TopologyError(f"core {cid} listed in ccd {i} but points to ccd {self.cores[cid].ccd_id}")
        for i, socket in enumerate(self.sockets):
            if socket.socket_id != i:
                raise TopologyError(f"socket ids must be dense; index {i} holds id {socket.socket_id}")
            for nid in socket.node_ids:
                if self.nodes[nid].socket_id != i:
                    raise TopologyError(f"node {nid} listed in socket {i} but points to socket {self.nodes[nid].socket_id}")
        seen_cores = [cid for node in self.nodes for cid in node.core_ids]
        if sorted(seen_cores) != list(range(len(self.cores))):
            raise TopologyError("node core lists do not partition the core set")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_sockets(self) -> int:
        return len(self.sockets)

    @property
    def num_ccds(self) -> int:
        return len(self.ccds)

    @property
    def cores_per_node(self) -> int:
        """Core count of the largest node (== node size on regular machines).

        ILAN uses this as the default thread-count granularity ``g``.
        """
        return max(node.num_cores for node in self.nodes)

    def node_of_core(self, core_id: int) -> int:
        """NUMA node id owning ``core_id``."""
        self._check_core(core_id)
        return self._node_of_core[core_id]

    def ccd_of_core(self, core_id: int) -> int:
        """CCD (L3 group) id owning ``core_id``."""
        self._check_core(core_id)
        return self._ccd_of_core[core_id]

    def socket_of_node(self, node_id: int) -> int:
        self._check_node(node_id)
        return self.nodes[node_id].socket_id

    def cores_of_node(self, node_id: int) -> tuple[int, ...]:
        self._check_node(node_id)
        return self.nodes[node_id].core_ids

    def primary_core_of_node(self, node_id: int) -> int:
        self._check_node(node_id)
        return self.nodes[node_id].primary_core

    def nodes_of_socket(self, socket_id: int) -> tuple[int, ...]:
        if not (0 <= socket_id < len(self.sockets)):
            raise TopologyError(f"unknown socket {socket_id}")
        return self.sockets[socket_id].node_ids

    def same_socket(self, node_a: int, node_b: int) -> bool:
        """True when two NUMA nodes share a socket (cheaper interconnect)."""
        return self.socket_of_node(node_a) == self.socket_of_node(node_b)

    def siblings_in_node(self, core_id: int) -> tuple[int, ...]:
        """All cores in the same NUMA node as ``core_id`` (including it)."""
        return self.cores_of_node(self.node_of_core(core_id))

    def core_ids(self) -> range:
        return range(self.num_cores)

    def node_ids(self) -> range:
        return range(self.num_nodes)

    def describe(self) -> str:
        """One-line human-readable summary of the machine shape."""
        return (
            f"{self.name}: {self.num_sockets} socket(s), {self.num_nodes} NUMA node(s), "
            f"{self.num_ccds} CCD(s), {self.num_cores} core(s)"
        )

    # ------------------------------------------------------------------
    def _check_core(self, core_id: int) -> None:
        if not (0 <= core_id < len(self.cores)):
            raise TopologyError(f"unknown core {core_id}")

    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < len(self.nodes)):
            raise TopologyError(f"unknown node {node_id}")


def contiguous_ranges(ids: Sequence[int]) -> list[tuple[int, int]]:
    """Collapse a sorted id sequence into inclusive ``(start, end)`` ranges.

    Utility shared by the hwloc-style formatter and the affinity masks.
    """
    ranges: list[tuple[int, int]] = []
    for i in ids:
        if ranges and i == ranges[-1][1] + 1:
            ranges[-1] = (ranges[-1][0], i)
        else:
            ranges.append((i, i))
    return ranges
