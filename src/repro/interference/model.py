"""The interference model: per-core slowdowns from the machine state.

This is where data locality and resource contention — the two effects the
ILAN scheduler manages — turn into execution rates:

* **locality**: a chunk's memory time is scaled by the distance-weighted
  latency factor between the executing core's NUMA node and the home nodes
  of its pages (precomputed ``(cores, nodes)`` matrix ``L``);
* **contention**: per-node demand vs. capacity with a superlinear penalty
  (:func:`repro.memory.bandwidth.contention_slowdown`), applied with the
  running task's own contention exponent.

For a task whose body is ``mem_frac`` memory-bound, the body slowdown is::

    s = (1 - mem_frac) + mem_frac * sum_n w_n * L[c, n] * r_n ** (1 + gamma)

with ``r_n = max(1, D_n / B_n)`` the node's saturation ratio.  ``s = 1``
for pure-compute tasks, for perfectly local uncontended memory tasks, and
for idle cores.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.memory.bandwidth import BandwidthModel
from repro.sim.progress import CoreStates
from repro.topology.distances import DistanceMatrix
from repro.topology.machine import MachineTopology

__all__ = ["InterferenceModel"]


class InterferenceModel:
    """Precomputed machine parameters + the slowdown computation."""

    __slots__ = ("bandwidth", "latency", "node_of_core", "_num_cores", "_num_nodes")

    def __init__(
        self,
        topology: MachineTopology,
        distances: DistanceMatrix,
        bandwidth: BandwidthModel,
    ):
        if distances.num_nodes != topology.num_nodes:
            raise SimulationError("distance matrix does not match topology node count")
        if bandwidth.num_nodes != topology.num_nodes:
            raise SimulationError("bandwidth model does not match topology node count")
        self.bandwidth = bandwidth
        self._num_cores = topology.num_cores
        self._num_nodes = topology.num_nodes
        self.node_of_core = np.array(
            [topology.node_of_core(c) for c in topology.core_ids()], dtype=np.int64
        )
        # L[c, n]: latency factor from core c's node to memory node n
        self.latency = (distances.matrix / 10.0)[self.node_of_core, :]

    # ------------------------------------------------------------------
    def node_demand(self, states: CoreStates) -> np.ndarray:
        """Aggregate demanded bandwidth per node, bytes/s.

        An offline core's task is frozen — it issues no memory traffic —
        so offline cores are excluded from demand.  Their *slowdown* rows
        are still computed like any active core's (they are meaningless
        while frozen: the executor pins their completion time to ``inf``).
        """
        a = states.active
        if states.any_offline:
            a = a & states.online
        if not a.any():
            return np.zeros(self._num_nodes)
        w = states.weights[a]
        mf = states.mem_frac[a]
        return self.bandwidth.core_bandwidth * (mf[:, None] * w).sum(axis=0)

    def slowdowns(self, states: CoreStates) -> np.ndarray:
        """Per-core body slowdown vector (1.0 for idle cores)."""
        if states.num_cores != self._num_cores or states.num_nodes != self._num_nodes:
            raise SimulationError("core states do not match this machine")
        s = np.ones(self._num_cores)
        a = states.active
        if not a.any():
            return s
        demand = self.node_demand(states)
        ratio = np.maximum(demand / self.bandwidth.node_bandwidth, 1.0)
        cores = np.flatnonzero(a)
        if np.all(ratio == 1.0):
            # fast path: no node saturated, only locality matters
            mem_mult = (states.weights[cores] * self.latency[cores]).sum(axis=1)
        else:
            log_r = np.log(ratio)
            # per-task superlinear penalty: ratio ** (1 + gamma_task)
            penalty = np.exp(np.outer(1.0 + states.gamma[cores], log_r))
            mem_mult = (states.weights[cores] * self.latency[cores] * penalty).sum(axis=1)
        mf = states.mem_frac[cores]
        s[cores] = (1.0 - mf) + mf * mem_mult
        return s

    def slowdowns_and_saturation(self, states: CoreStates) -> tuple[np.ndarray, np.ndarray]:
        """Both per-core slowdowns and per-node saturation in one pass.

        Used by the executor when performance counters are enabled, to
        avoid recomputing the demand vector per step.
        """
        if states.num_cores != self._num_cores or states.num_nodes != self._num_nodes:
            raise SimulationError("core states do not match this machine")
        s = np.ones(self._num_cores)
        sat = np.zeros(self._num_nodes)
        a = states.active
        if not a.any():
            return s, sat
        demand = self.node_demand(states)
        sat = demand / self.bandwidth.node_bandwidth
        ratio = np.maximum(sat, 1.0)
        cores = np.flatnonzero(a)
        if np.all(ratio == 1.0):
            mem_mult = (states.weights[cores] * self.latency[cores]).sum(axis=1)
        else:
            log_r = np.log(ratio)
            penalty = np.exp(np.outer(1.0 + states.gamma[cores], log_r))
            mem_mult = (states.weights[cores] * self.latency[cores] * penalty).sum(axis=1)
        mf = states.mem_frac[cores]
        s[cores] = (1.0 - mf) + mf * mem_mult
        return s, sat
