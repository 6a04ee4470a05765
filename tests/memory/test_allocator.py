"""Unit tests for data regions and allocation policies."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.memory.access import AccessPattern, chunk_access
from repro.memory.allocator import AllocPolicy, MemoryMap
from repro.memory.pages import UNTOUCHED


@pytest.fixture
def mm():
    return MemoryMap(num_nodes=4, page_bytes=1024)


class TestAllocate:
    def test_first_touch_starts_untouched(self, mm):
        r = mm.allocate("a", 8 * 1024)
        assert r.policy is AllocPolicy.FIRST_TOUCH
        assert np.all(r.pages.home == UNTOUCHED)

    def test_page_count_rounds_up(self, mm):
        r = mm.allocate("a", 8 * 1024 + 1, min_pages=1)
        assert r.num_pages == 9

    def test_min_pages_floor(self, mm):
        r = mm.allocate("a", 100)
        assert r.num_pages == 8

    def test_interleave_spreads(self, mm):
        r = mm.allocate("a", 16 * 1024, policy=AllocPolicy.INTERLEAVE, min_pages=1)
        w = r.pages.region_home_weights()
        assert np.allclose(w, 0.25)

    def test_interleave_subset(self, mm):
        r = mm.allocate("a", 16 * 1024, policy=AllocPolicy.INTERLEAVE, nodes=[1, 3], min_pages=1)
        w = r.pages.region_home_weights()
        assert w[0] == 0 and w[2] == 0
        assert w[1] == pytest.approx(0.5)

    def test_bind_single_node(self, mm):
        r = mm.allocate("a", 4 * 1024, policy=AllocPolicy.BIND, nodes=[2], min_pages=1)
        assert np.all(r.pages.home == 2)

    def test_bind_requires_one_node(self, mm):
        with pytest.raises(MemoryModelError):
            mm.allocate("a", 4 * 1024, policy=AllocPolicy.BIND, nodes=[1, 2])

    def test_first_touch_rejects_nodes(self, mm):
        with pytest.raises(MemoryModelError):
            mm.allocate("a", 1024, nodes=[0])

    def test_duplicate_name_rejected(self, mm):
        mm.allocate("a", 1024)
        with pytest.raises(MemoryModelError):
            mm.allocate("a", 1024)

    def test_bad_size_rejected(self, mm):
        with pytest.raises(MemoryModelError):
            mm.allocate("a", 0)


class TestMemoryMap:
    def test_region_lookup(self, mm):
        r = mm.allocate("x", 1024)
        assert mm.region("x") is r
        assert "x" in mm
        assert "y" not in mm

    def test_unknown_region(self, mm):
        with pytest.raises(MemoryModelError):
            mm.region("nope")

    def test_iteration_and_totals(self, mm):
        mm.allocate("a", 1000)
        mm.allocate("b", 2000)
        assert len(mm) == 2
        assert sum(r.num_bytes for r in mm) == 3000
        assert {r.name for r in mm} == {"a", "b"}

    def test_bad_num_nodes(self):
        with pytest.raises(MemoryModelError):
            MemoryMap(0)


class TestRegion:
    """A blocked chunk's page span, as ``chunk_access`` resolves it and
    its commit first-touches it."""

    def test_page_span_tiles_without_gaps(self, mm):
        r = mm.allocate("a", 64 * 1024, min_pages=1)  # 64 pages
        for i in range(7):
            chunk_access(r, AccessPattern.blocked(), i / 7, (i + 1) / 7, i % 4).commit()
        assert r.pages.num_untouched == 0

    def test_page_span_never_empty(self, mm):
        r = mm.allocate("a", 8 * 1024, min_pages=1)
        chunk_access(r, AccessPattern.blocked(), 0.999, 1.0, 2).commit()
        assert list(r.pages.home) == [UNTOUCHED] * 7 + [2]

    def test_page_span_bad_args(self, mm):
        r = mm.allocate("a", 8 * 1024)
        with pytest.raises(MemoryModelError):
            chunk_access(r, AccessPattern.blocked(), 0.5, 0.5, 0)
        with pytest.raises(MemoryModelError):
            chunk_access(r, AccessPattern.blocked(), -0.1, 0.5, 0)

    def test_blend_last_share(self, mm):
        r = mm.allocate("a", 8 * 1024)
        r.blend_last_share(1, 0.5)
        assert r.last_share[1] == pytest.approx(0.5)
        r.blend_last_share(2, 0.5)
        assert r.last_share[1] == pytest.approx(0.25)
        assert r.last_share[2] == pytest.approx(0.5)
        assert r.last_share.sum() <= 1.0 + 1e-9

    def test_blend_bad_node(self, mm):
        r = mm.allocate("a", 8 * 1024)
        with pytest.raises(MemoryModelError):
            r.blend_last_share(9, 0.5)
