"""Property-based tests for taskloop partitioning and profile masses."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.memory.access import AccessPattern
from repro.memory.allocator import MemoryMap
from repro.runtime.task import TaskloopWork
from repro.runtime.taskloop import chunk_bounds, partition, profile_mass


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=20_000),
    data=st.data(),
)
def test_chunk_bounds_partition_exactly(total, data):
    n = data.draw(st.integers(min_value=1, max_value=total))
    bounds = chunk_bounds(total, n)
    assert len(bounds) == n
    assert bounds[0][0] == 0
    assert bounds[-1][1] == total
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        assert b == c
    sizes = [hi - lo for lo, hi in bounds]
    assert max(sizes) - min(sizes) <= 1
    assert all(s >= 1 for s in sizes)


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=10_000),
    data=st.data(),
)
def test_chunk_sizes_monotone_nonincreasing(total, data):
    """LLVM gives the remainder to the first chunks."""
    n = data.draw(st.integers(min_value=1, max_value=total))
    sizes = [hi - lo for lo, hi in chunk_bounds(total, n)]
    assert sizes == sorted(sizes, reverse=True)


weights_strategy = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=128),
    elements=st.floats(min_value=0.001, max_value=100.0),
)


@settings(max_examples=50)
@given(weights=weights_strategy, cuts=st.integers(min_value=1, max_value=20))
def test_profile_mass_tiles_to_one(weights, cuts):
    w = weights / weights.sum()
    edges = np.linspace(0.0, 1.0, cuts + 1)
    total = sum(profile_mass(w, float(a), float(b)) for a, b in zip(edges, edges[1:]))
    assert abs(total - 1.0) < 1e-9


@settings(max_examples=50)
@given(
    weights=weights_strategy,
    lo=st.floats(min_value=0.0, max_value=0.99),
    span=st.floats(min_value=0.001, max_value=1.0),
)
def test_profile_mass_nonnegative_and_bounded(weights, lo, span):
    w = weights / weights.sum()
    hi = min(lo + span, 1.0)
    if hi <= lo:
        return
    m = profile_mass(w, lo, hi)
    assert 0.0 <= m <= 1.0 + 1e-9


@settings(max_examples=50)
@given(weights=weights_strategy, lo=st.floats(0.0, 0.5), mid=st.floats(0.5, 0.8), hi=st.floats(0.8, 1.0))
def test_profile_mass_additive(weights, lo, mid, hi):
    if not (lo < mid < hi):
        return
    w = weights / weights.sum()
    whole = profile_mass(w, lo, hi)
    parts = profile_mass(w, lo, mid) + profile_mass(w, mid, hi)
    assert abs(whole - parts) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    profiles=st.lists(weights_strategy, min_size=1, max_size=4),
    total=st.integers(min_value=1, max_value=2000),
    work_seconds=st.sampled_from([0.01, 0.25, 3.0]),
    data=st.data(),
)
def test_partition_matches_unmemoised_chunks(profiles, total, work_seconds, data):
    """Chunk layouts are memoised by value across encounters: every chunk,
    on every repeated and interleaved encounter of several profiles,
    equals the from-scratch bounds and profile-weighted body time."""
    n = data.draw(st.integers(min_value=1, max_value=min(total, 64)))
    region = MemoryMap(num_nodes=1).allocate("r", 1024)
    for weights in profiles + profiles:
        work = TaskloopWork(
            uid="p.loop", name="loop", total_iters=total, num_tasks=n,
            work_seconds=work_seconds, mem_frac=0.5, weights=weights,
            region=region, pattern=AccessPattern.blocked(),
        )
        chunks = partition(work)
        assert [(c.lo, c.hi) for c in chunks] == chunk_bounds(total, n)
        for c in chunks:
            assert c.lo_frac == c.lo / total and c.hi_frac == c.hi / total
            body = work_seconds * profile_mass(work.weights, c.lo_frac, c.hi_frac)
            assert c.body_time == (body if body > 0.0 else work_seconds * 1e-9)
