"""Unit tests for bit masks and proc_bind placement policies."""

import pytest

from repro.errors import TopologyError
from repro.topology.affinity import (
    BitMask,
    CpuMask,
    NodeMask,
    proc_bind_close,
    proc_bind_spread,
)


class TestBitMask:
    def test_empty_and_full(self):
        assert BitMask.empty(8).count() == 0
        assert BitMask.full(8).count() == 8
        assert BitMask.full(8).bits == 0xFF

    def test_from_indices(self):
        m = BitMask.from_indices([0, 3, 5], 8)
        assert m.indices() == [0, 3, 5]

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError):
            BitMask.from_indices([8], 8)
        with pytest.raises(TopologyError):
            BitMask(bits=1 << 9, width=8)
        with pytest.raises(TopologyError):
            BitMask(bits=-1, width=8)
        with pytest.raises(TopologyError):
            BitMask(bits=0, width=0)

    def test_first(self):
        assert BitMask.from_indices([4, 6], 8).first() == 4
        with pytest.raises(TopologyError):
            BitMask.empty(4).first()

    def test_algebra(self):
        a = BitMask.from_indices([0, 1], 8)
        b = BitMask.from_indices([1, 2], 8)
        assert BitMask.from_indices([1], 8).is_subset(a)
        assert BitMask.empty(8).is_subset(a)
        assert a.is_subset(a)
        assert not b.is_subset(a)

    def test_width_mismatch(self):
        with pytest.raises(TopologyError):
            BitMask.full(4).is_subset(BitMask.full(8))

    def test_str_ranges(self):
        assert str(BitMask.from_indices([0, 1, 2, 5], 8)) == "{0-2,5}"
        assert str(BitMask.empty(4)) == "{}"

    def test_iter_and_len(self):
        m = BitMask.from_indices([2, 4], 8)
        assert list(m) == [2, 4]
        assert len(m) == 2


class TestNodeMask:
    def test_for_topology(self, zen4):
        m = NodeMask.for_topology(zen4)
        assert m.count() == 8

    def test_cores_of_mask(self, zen4):
        m = NodeMask.from_indices([0, 2], 8)
        cores = m.cores(zen4)
        assert cores == list(range(0, 8)) + list(range(16, 24))

    def test_cores_width_mismatch(self, tiny):
        m = NodeMask.from_indices([0], 8)
        with pytest.raises(TopologyError):
            m.cores(tiny)


class TestProcBind:
    def test_close_packs_consecutively(self, zen4):
        assert proc_bind_close(zen4, 10) == list(range(10))

    def test_close_wraps_on_oversubscription(self, tiny):
        assert proc_bind_close(tiny, 6) == [0, 1, 2, 3, 0, 1]

    def test_spread_distributes_across_nodes(self, zen4):
        placement = proc_bind_spread(zen4, 8)
        nodes = {zen4.node_of_core(c) for c in placement}
        assert nodes == set(range(8))

    def test_spread_full_machine_uses_every_core(self, small):
        placement = proc_bind_spread(small, small.num_cores)
        assert sorted(placement) == list(range(small.num_cores))

    def test_invalid_thread_count(self, tiny):
        with pytest.raises(TopologyError):
            proc_bind_close(tiny, 0)
        with pytest.raises(TopologyError):
            proc_bind_spread(tiny, -1)


class TestProcBindEdgeCases:
    def test_spread_oversubscription_wraps(self, tiny):
        placement = proc_bind_spread(tiny, 6)
        assert len(placement) == 6
        assert set(placement) <= set(range(4))

    def test_close_exact_machine(self, small):
        assert proc_bind_close(small, 16) == list(range(16))

    def test_spread_single_thread(self, zen4):
        placement = proc_bind_spread(zen4, 1)
        assert placement == [0]
