"""Unit tests for the interference (slowdown) model."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.interference.model import InterferenceModel
from repro.memory.bandwidth import BandwidthModel
from repro.sim.incremental import IncrementalInterference
from repro.sim.progress import CoreStates
from repro.topology.distances import LOCAL_DISTANCE
from repro.topology.presets import default_distances, tiny_two_node


@pytest.fixture
def machine():
    topo = tiny_two_node()  # 4 cores, 2 nodes
    dist = default_distances(topo)
    bw = BandwidthModel(node_bandwidth=np.array([10.0, 10.0]), core_bandwidth=8.0)
    return topo, dist, InterferenceModel(topo, dist, bw)


def start(states, core, mem_frac, weights, gamma=0.0):
    states.start(
        core, body=1.0, overhead=0.0, mem_frac=mem_frac, gamma=gamma,
        weights=np.asarray(weights, dtype=float), payload=None,
    )


class TestSlowdowns:
    def test_idle_machine_all_ones(self, machine):
        topo, _, model = machine
        states = CoreStates(topo.num_cores, topo.num_nodes)
        assert np.all(model.slowdowns(states) == 1.0)

    def test_pure_compute_no_slowdown(self, machine):
        topo, _, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=0.0, weights=[0, 0])
        assert model.slowdowns(states)[0] == 1.0

    def test_local_uncontended_memory_no_slowdown(self, machine):
        topo, _, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=0.5, weights=[1.0, 0.0])  # core 0 is on node 0
        assert model.slowdowns(states)[0] == pytest.approx(1.0)

    def test_remote_memory_latency_penalty(self, machine):
        topo, dist, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=1.0, weights=[0.0, 1.0])  # all bytes remote
        lf = dist.matrix[0, 1] / LOCAL_DISTANCE
        assert model.slowdowns(states)[0] == pytest.approx(lf)

    def test_contention_kicks_in_at_saturation(self, machine):
        topo, _, model = machine
        states = CoreStates(4, 2)
        # both node-0 cores hammer node 0: demand 2 * 8 = 16 > 10
        start(states, 0, mem_frac=1.0, weights=[1.0, 0.0])
        start(states, 1, mem_frac=1.0, weights=[1.0, 0.0])
        s = model.slowdowns(states)
        assert s[0] == pytest.approx(1.6)  # D/B with gamma=0
        assert s[1] == pytest.approx(1.6)

    def test_gamma_superlinear(self, machine):
        topo, _, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=1.0, weights=[1.0, 0.0], gamma=1.0)
        start(states, 1, mem_frac=1.0, weights=[1.0, 0.0], gamma=1.0)
        assert model.slowdowns(states)[0] == pytest.approx(1.6**2)

    def test_mem_frac_blends(self, machine):
        topo, dist, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=0.5, weights=[0.0, 1.0])
        expected = 0.5 + 0.5 * dist.matrix[0, 1] / LOCAL_DISTANCE
        assert model.slowdowns(states)[0] == pytest.approx(expected)

    def test_victim_on_saturated_node_also_slowed(self, machine):
        """A task whose data lives on a node saturated by others suffers."""
        topo, _, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=1.0, weights=[1.0, 0.0])
        start(states, 1, mem_frac=1.0, weights=[1.0, 0.0])
        # core 2 (node 1) accesses node 0 remotely
        start(states, 2, mem_frac=1.0, weights=[1.0, 0.0])
        s = model.slowdowns(states)
        assert s[2] > 1.6  # latency factor times contention

    def test_mismatched_states_rejected(self, machine):
        _, _, model = machine
        with pytest.raises(SimulationError):
            model.slowdowns(CoreStates(2, 2))


class TestDemand:
    def test_node_demand_aggregates(self, machine):
        _, _, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=0.5, weights=[1.0, 0.0])
        start(states, 2, mem_frac=1.0, weights=[0.5, 0.5])
        d = model.node_demand(states)
        assert d[0] == pytest.approx(8.0 * (0.5 + 0.5))
        assert d[1] == pytest.approx(8.0 * 0.5)

    def test_saturation_ratio(self, machine):
        _, _, model = machine
        states = CoreStates(4, 2)
        start(states, 0, mem_frac=1.0, weights=[1.0, 0.0])
        _, sat = model.slowdowns_and_saturation(states)
        assert sat[0] == pytest.approx(0.8)
        assert sat[1] == 0.0
        _, cached = IncrementalInterference(model, states).slowdowns_and_saturation()
        assert cached.tobytes() == sat.tobytes()


class TestConstruction:
    def test_mismatched_distances_rejected(self):
        topo = tiny_two_node()
        from repro.topology.presets import dual_socket_small

        wrong_dist = default_distances(dual_socket_small())
        bw = BandwidthModel(node_bandwidth=np.array([1.0, 1.0]))
        with pytest.raises(SimulationError):
            InterferenceModel(topo, wrong_dist, bw)

    def test_mismatched_bandwidth_rejected(self):
        topo = tiny_two_node()
        bw = BandwidthModel(node_bandwidth=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(SimulationError):
            InterferenceModel(topo, default_distances(topo), bw)
