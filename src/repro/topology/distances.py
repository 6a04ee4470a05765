"""NUMA distance matrix and latency factors.

Follows the ACPI SLIT convention: local distance is 10, remote distances
are relative to that (e.g. 32 means a remote access costs 3.2x a local
one).  The interference model multiplies a task's memory time by the
latency factor ``distance[src, dst] / 10``.

On the Zen 4 evaluation platform of the paper, nodes within a socket talk
over the on-package Infinity Fabric while cross-socket traffic crosses the
xGMI links, so three distance classes are enough: local, intra-socket and
inter-socket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.topology.machine import MachineTopology

__all__ = ["DistanceMatrix", "LOCAL_DISTANCE"]

LOCAL_DISTANCE = 10


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise NUMA node distances in SLIT units.

    Attributes
    ----------
    matrix:
        ``(num_nodes, num_nodes)`` integer-valued float array; diagonal is
        ``LOCAL_DISTANCE``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise TopologyError(f"distance matrix must be square, got shape {m.shape}")
        if not np.all(np.diag(m) == LOCAL_DISTANCE):
            raise TopologyError("distance matrix diagonal must equal the local distance (10)")
        if np.any(m < LOCAL_DISTANCE):
            raise TopologyError("remote distances cannot be smaller than the local distance")
        if not np.allclose(m, m.T):
            raise TopologyError("distance matrix must be symmetric")
        # freeze the backing array so the dataclass is genuinely immutable
        m.setflags(write=False)

    # ------------------------------------------------------------------
    @staticmethod
    def from_topology(
        topology: MachineTopology,
        *,
        intra_socket: int = 11,
        inter_socket: int = 14,
    ) -> "DistanceMatrix":
        """Derive the three-class distance matrix from a topology.

        Defaults approximate measured Zen 4 *effective* NUMA throughput
        factors (~1.1x within a socket, ~1.4x across sockets); see
        :func:`repro.topology.presets.default_distances`.
        """
        if not (LOCAL_DISTANCE <= intra_socket <= inter_socket):
            raise TopologyError(
                "expected local <= intra_socket <= inter_socket, got "
                f"{LOCAL_DISTANCE}, {intra_socket}, {inter_socket}"
            )
        n = topology.num_nodes
        m = np.full((n, n), float(inter_socket))
        for a in range(n):
            for b in range(n):
                if a == b:
                    m[a, b] = LOCAL_DISTANCE
                elif topology.same_socket(a, b):
                    m[a, b] = float(intra_socket)
        return DistanceMatrix(matrix=m)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]
