"""Unit tests for the topology presets."""

from repro.topology.distances import LOCAL_DISTANCE
from repro.topology.machine import GIB
from repro.topology.presets import (
    default_distances,
    dual_socket_small,
    single_node,
    tiny_two_node,
    zen4_9354,
)


def test_zen4_matches_paper_platform():
    """64 cores, 8 NUMA nodes x 8 cores, 4 nodes/socket, 2 CCDs x 4 cores."""
    topo = zen4_9354()
    assert topo.num_cores == 64
    assert topo.num_nodes == 8
    assert topo.num_sockets == 2
    assert all(n.num_cores == 8 for n in topo.nodes)
    assert all(len(s.node_ids) == 4 for s in topo.sockets)
    assert all(len(n.ccd_ids) == 2 for n in topo.nodes)
    assert all(len(c.core_ids) == 4 for c in topo.ccds)
    # 768 GB total memory
    assert sum(n.mem_bytes for n in topo.nodes) == 768 * GIB


def test_zen4_custom_bandwidth():
    topo = zen4_9354(mem_bandwidth_per_node=20.0 * GIB)
    assert topo.nodes[0].mem_bandwidth == 20.0 * GIB


def test_small_presets():
    assert dual_socket_small().num_cores == 16
    assert dual_socket_small().num_nodes == 4
    assert single_node(6).num_nodes == 1
    assert single_node(6).num_cores == 6
    assert tiny_two_node().num_cores == 4


def test_default_distances_classes():
    d = default_distances(zen4_9354())
    assert d.matrix[0, 0] == LOCAL_DISTANCE
    assert d.matrix[0, 1] == 11
    assert d.matrix[0, 7] == 14


def test_uma_distances_trivial():
    d = default_distances(single_node(4))
    assert d.num_nodes == 1
    assert d.matrix[0, 0] == LOCAL_DISTANCE
