"""Unit tests for page-level home/last-touch state."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.memory.access import AccessPattern, chunk_access
from repro.memory.allocator import MemoryMap
from repro.memory.pages import UNTOUCHED, PageState


@pytest.fixture
def ps():
    return PageState(num_pages=16, num_nodes=4)


class TestFirstTouch:
    def test_homes_untouched_pages(self, ps):
        homed = ps.first_touch(0, 4, node=1)
        assert homed == 4
        assert np.all(ps.home[0:4] == 1)

    def test_does_not_rehome(self, ps):
        ps.first_touch(0, 4, node=1)
        homed = ps.first_touch(0, 4, node=2)
        assert homed == 0
        assert np.all(ps.home[0:4] == 1)

    def test_partial_overlap(self, ps):
        ps.first_touch(0, 4, node=0)
        homed = ps.first_touch(2, 6, node=3)
        assert homed == 2
        assert list(ps.home[0:6]) == [0, 0, 0, 0, 3, 3]

    def test_updates_last_touch(self, ps):
        ps.first_touch(0, 4, node=1)
        assert np.all(ps.last[0:4] == 1)

    def test_home_counts_cache(self, ps):
        ps.first_touch(0, 4, node=1)
        ps.first_touch(4, 6, node=2)
        counts = ps.home_counts()
        assert counts[1] == 4 and counts[2] == 2 and counts.sum() == 6


class TestBindInterleave:
    def test_bind_overrides(self, ps):
        ps.first_touch(0, 8, node=0)
        ps.bind(0, 8, node=3)
        assert np.all(ps.home[0:8] == 3)
        assert ps.home_counts()[3] == 8
        assert ps.home_counts()[0] == 0

    def test_interleave_round_robin(self, ps):
        ps.interleave(0, 8, nodes=[0, 1])
        assert list(ps.home[0:8]) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_interleave_empty_nodes_rejected(self, ps):
        with pytest.raises(MemoryModelError):
            ps.interleave(0, 8, nodes=[])

    def test_interleave_counts(self, ps):
        ps.interleave(0, 6, nodes=[2, 3])
        assert ps.home_counts()[2] == 3 and ps.home_counts()[3] == 3


class TestTouch:
    def test_last_touch_fraction(self):
        """A chunk's reuse share is the fraction of its span last touched
        by the executing node (``chunk_access`` counts it)."""
        region = MemoryMap(num_nodes=4, page_bytes=1024).allocate("r", 16 * 1024, min_pages=1)
        region.pages.first_touch(0, 2, node=1)
        region.pages.first_touch(2, 4, node=0)
        blocked = AccessPattern.blocked()
        assert chunk_access(region, blocked, 0.0, 0.25, 1).reuse_fraction == 0.5
        assert chunk_access(region, blocked, 0.0, 0.25, 3).reuse_fraction == 0.0

    def test_last_counts_consistent_after_overwrites(self, ps):
        ps.first_touch(0, 8, node=0)
        ps.first_touch(4, 12, node=1)
        assert np.array_equal(ps.last_counts(), [4, 8, 0, 0])
        assert ps.last[12] == UNTOUCHED


class TestQueries:
    def test_home_histogram(self, ps):
        ps.first_touch(0, 4, node=1)
        counts, untouched = ps.home_histogram(0, 8)
        assert counts[1] == 4
        assert untouched == 4

    def test_region_home_weights_empty(self, ps):
        assert np.all(ps.region_home_weights() == 0)
        assert ps.untouched_fraction() == 1.0

    def test_region_home_weights(self, ps):
        ps.first_touch(0, 8, node=0)
        ps.first_touch(8, 16, node=1)
        w = ps.region_home_weights()
        assert w[0] == pytest.approx(0.5)
        assert ps.untouched_fraction() == 0.0

    def test_bad_ranges(self, ps):
        for bad in [(-1, 2), (2, 2), (0, 17)]:
            with pytest.raises(MemoryModelError):
                ps.home_histogram(*bad)

    def test_bad_node(self, ps):
        with pytest.raises(MemoryModelError):
            ps.first_touch(0, 2, node=4)

    def test_bad_constructor(self):
        with pytest.raises(MemoryModelError):
            PageState(0, 4)
        with pytest.raises(MemoryModelError):
            PageState(4, 0)
        with pytest.raises(MemoryModelError):
            PageState(4, 4, page_bytes=0)
