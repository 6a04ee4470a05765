"""Unit tests for access-pattern resolution (chunk -> node weights)."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.memory.access import AccessPattern, chunk_access
from repro.memory.allocator import MemoryMap


@pytest.fixture
def region():
    mm = MemoryMap(num_nodes=4, page_bytes=1024)
    return mm.allocate("r", 64 * 1024, min_pages=1)  # 64 pages


class TestAccessPattern:
    def test_constructors(self):
        assert AccessPattern.blocked().blocked_fraction == 1.0
        assert AccessPattern.uniform().blocked_fraction == 0.0
        assert AccessPattern.strided(0.5).blocked_fraction == 0.5

    def test_bad_fraction(self):
        with pytest.raises(MemoryModelError):
            AccessPattern(blocked_fraction=1.5)
        with pytest.raises(MemoryModelError):
            AccessPattern(blocked_fraction=-0.1)


class TestBlocked:
    def test_untouched_counts_as_local(self, region):
        acc = chunk_access(region, AccessPattern.blocked(), 0.0, 0.25, exec_node=2)
        assert acc.node_weights[2] == pytest.approx(1.0)
        assert acc.node_weights.sum() == pytest.approx(1.0)
        assert acc.reuse_fraction == 0.0

    def test_commit_homes_and_touches(self, region):
        acc = chunk_access(region, AccessPattern.blocked(), 0.0, 0.25, exec_node=2)
        acc.commit()
        assert np.all(region.pages.home[0:16] == 2)
        assert np.all(region.pages.last[0:16] == 2)

    def test_homed_commit_writes_only_last(self, region):
        """With every page homed, a commit homes nothing: it writes the
        span's last-touch node and leaves the homes and their version."""
        region.pages.interleave(0, 64, nodes=[0, 1])
        home, version = region.pages.home.copy(), region.pages.home_version
        chunk_access(region, AccessPattern.blocked(), 0.0, 0.0625, exec_node=2).commit()
        assert np.all(region.pages.last[0:4] == 2)
        assert np.all(region.pages.last[4:] == -1)
        assert np.array_equal(region.pages.home, home)
        assert region.pages.home_version == version

    def test_rerun_same_node_full_locality_and_reuse(self, region):
        chunk_access(region, AccessPattern.blocked(), 0.0, 0.25, 2).commit()
        acc = chunk_access(region, AccessPattern.blocked(), 0.0, 0.25, 2)
        assert acc.node_weights[2] == pytest.approx(1.0)
        assert acc.reuse_fraction == pytest.approx(1.0)

    def test_rerun_other_node_sees_remote_homes(self, region):
        chunk_access(region, AccessPattern.blocked(), 0.0, 0.25, 2).commit()
        acc = chunk_access(region, AccessPattern.blocked(), 0.0, 0.25, 0)
        assert acc.node_weights[2] == pytest.approx(1.0)  # homes stay on 2
        assert acc.node_weights[0] == pytest.approx(0.0)
        assert acc.reuse_fraction == 0.0

    def test_disjoint_chunks_do_not_interact(self, region):
        chunk_access(region, AccessPattern.blocked(), 0.0, 0.5, 1).commit()
        acc = chunk_access(region, AccessPattern.blocked(), 0.5, 1.0, 3)
        assert acc.node_weights[3] == pytest.approx(1.0)


class TestUniform:
    def test_cold_region_all_local(self, region):
        acc = chunk_access(region, AccessPattern.uniform(), 0.0, 0.25, 1)
        assert acc.node_weights[1] == pytest.approx(1.0)

    def test_weights_follow_home_distribution(self, region):
        region.pages.interleave(0, 64, nodes=[0, 1])
        acc = chunk_access(region, AccessPattern.uniform(), 0.0, 0.25, 3)
        assert acc.node_weights[0] == pytest.approx(0.5)
        assert acc.node_weights[1] == pytest.approx(0.5)
        assert acc.node_weights[3] == pytest.approx(0.0)

    def test_reuse_from_region_last_share(self, region):
        region.pages.interleave(0, 64, nodes=[0])
        region.blend_last_share(1, 0.6)
        acc = chunk_access(region, AccessPattern.uniform(), 0.0, 0.25, 1)
        assert acc.reuse_fraction == pytest.approx(0.6)

    def test_commit_first_touches_scattered_pages(self, region):
        acc = chunk_access(region, AccessPattern.uniform(), 0.0, 0.25, 1)
        acc.commit()
        homed = (region.pages.home == 1).sum()
        assert homed >= 14  # ~16 pages (a quarter of 64)
        assert region.last_share[1] > 0

    def test_commit_with_everything_homed_is_noop_on_homes(self, region):
        region.pages.interleave(0, 64, nodes=[0])
        before = region.pages.home.copy()
        chunk_access(region, AccessPattern.uniform(), 0.0, 0.5, 2).commit()
        assert np.array_equal(region.pages.home, before)


class TestStrided:
    def test_mixture_weights(self, region):
        region.pages.interleave(0, 64, nodes=[0])  # all homes on node 0
        acc = chunk_access(region, AccessPattern.strided(0.5), 0.0, 0.25, 1)
        # blocked half: pages homed on 0 -> weight 0.5 to node 0
        # uniform half: all homes on 0 -> weight 0.5 to node 0
        assert acc.node_weights[0] == pytest.approx(1.0)

    def test_mixture_reuse_combines(self, region):
        chunk_access(region, AccessPattern.blocked(), 0.0, 0.25, 1).commit()
        region.blend_last_share(1, 1.0)
        acc = chunk_access(region, AccessPattern.strided(0.5), 0.0, 0.25, 1)
        assert acc.reuse_fraction == pytest.approx(1.0)

    def test_weights_always_normalised(self, region):
        region.pages.interleave(0, 32, nodes=[0, 1, 2])
        for alpha in (0.0, 0.3, 0.7, 1.0):
            acc = chunk_access(region, AccessPattern.strided(alpha), 0.1, 0.6, 2)
            assert acc.node_weights.sum() == pytest.approx(1.0)


class TestValidation:
    def test_bad_span(self, region):
        with pytest.raises(MemoryModelError):
            chunk_access(region, AccessPattern.blocked(), 0.5, 0.5, 0)

    def test_bad_node(self, region):
        with pytest.raises(MemoryModelError):
            chunk_access(region, AccessPattern.blocked(), 0.0, 0.5, 7)
