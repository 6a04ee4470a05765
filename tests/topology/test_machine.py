"""Unit tests for the hierarchical machine model."""

import pytest

from repro.errors import TopologyError
from repro.topology.machine import GIB, MachineTopology, contiguous_ranges


class TestBuild:
    def test_zen4_shape(self, zen4):
        assert zen4.num_sockets == 2
        assert zen4.num_nodes == 8
        assert zen4.num_ccds == 16
        assert zen4.num_cores == 64
        assert zen4.cores_per_node == 8

    def test_tiny_shape(self, tiny):
        assert tiny.num_sockets == 1
        assert tiny.num_nodes == 2
        assert tiny.num_cores == 4

    def test_core_ids_dense_and_ordered(self, zen4):
        assert [c.core_id for c in zen4.cores] == list(range(64))

    def test_nodes_own_contiguous_core_ranges(self, zen4):
        for node in zen4.nodes:
            ids = list(node.core_ids)
            assert ids == list(range(ids[0], ids[0] + len(ids)))

    def test_node_partition_covers_all_cores(self, small):
        seen = sorted(c for n in small.nodes for c in n.core_ids)
        assert seen == list(range(small.num_cores))

    def test_ccd_l3_default(self, zen4):
        assert all(ccd.l3_bytes == 32 * 1024 * 1024 for ccd in zen4.ccds)

    def test_invalid_counts_rejected(self):
        with pytest.raises(TopologyError):
            MachineTopology.build(num_sockets=0)
        with pytest.raises(TopologyError):
            MachineTopology.build(cores_per_ccd=0)
        with pytest.raises(TopologyError):
            MachineTopology.build(mem_bandwidth_per_node=-1.0)
        with pytest.raises(TopologyError):
            MachineTopology.build(base_speed=0.0)


class TestQueries:
    def test_node_of_core(self, zen4):
        assert zen4.node_of_core(0) == 0
        assert zen4.node_of_core(8) == 1
        assert zen4.node_of_core(63) == 7

    def test_ccd_of_core(self, zen4):
        assert zen4.cores[0].ccd_id == 0
        assert zen4.cores[4].ccd_id == 1
        assert zen4.cores[8].ccd_id == 2

    def test_socket_of_node(self, zen4):
        assert zen4.socket_of_node(0) == 0
        assert zen4.socket_of_node(3) == 0
        assert zen4.socket_of_node(4) == 1

    def test_same_socket(self, zen4):
        assert zen4.same_socket(0, 3)
        assert not zen4.same_socket(3, 4)

    def test_primary_core(self, zen4):
        assert zen4.primary_core_of_node(0) == 0
        assert zen4.primary_core_of_node(5) == 40

    def test_siblings(self, zen4):
        assert zen4.cores_of_node(zen4.node_of_core(10)) == tuple(range(8, 16))

    def test_unknown_ids_raise(self, tiny):
        with pytest.raises(TopologyError):
            tiny.node_of_core(99)
        with pytest.raises(TopologyError):
            tiny.cores_of_node(9)
        with pytest.raises(TopologyError):
            tiny.socket_of_node(9)

    def test_describe_mentions_counts(self, zen4):
        text = zen4.describe()
        assert "64 core(s)" in text
        assert "8 NUMA node(s)" in text

    def test_node_memory_defaults(self, zen4):
        assert all(n.mem_bytes == 96 * GIB for n in zen4.nodes)


class TestValidation:
    def test_from_components_rejects_bad_node_ref(self, tiny):
        cores = list(tiny.cores)
        bad = cores[0].__class__(core_id=0, ccd_id=0, node_id=5, socket_id=0)
        with pytest.raises(TopologyError):
            MachineTopology.from_components(
                name="bad",
                sockets=tiny.sockets,
                nodes=tiny.nodes,
                ccds=tiny.ccds,
                cores=(bad,) + tuple(cores[1:]),
            )

    def test_validate_ok_on_presets(self, zen4, tiny, small, uma):
        for topo in (zen4, tiny, small, uma):
            topo.validate()


def test_contiguous_ranges():
    assert contiguous_ranges([]) == []
    assert contiguous_ranges([3]) == [(3, 3)]
    assert contiguous_ranges([0, 1, 2, 5, 6, 9]) == [(0, 2), (5, 6), (9, 9)]
