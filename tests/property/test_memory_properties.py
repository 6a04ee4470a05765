"""Property-based tests for the memory model invariants."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.access import AccessPattern, chunk_access
from repro.memory.allocator import DataRegion, MemoryMap
from repro.memory.bandwidth import contention_slowdown, node_demand
from repro.memory.pages import PageState


@settings(max_examples=60)
@given(
    num_pages=st.integers(min_value=1, max_value=128),
    num_nodes=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 127),
            st.integers(0, 127),
            st.integers(0, 7),
            st.lists(st.integers(0, 7), min_size=1, max_size=3),
        ),
        max_size=20,
    ),
)
def test_page_state_counts_stay_consistent(num_pages, num_nodes, ops):
    """After every mutator, the cached untouched count and the region-wide
    home weights (read from the cached per-node histogram) equal their
    from-scratch values exactly, and the home version moved whenever
    ``home`` changed (a bump without a change is allowed: it only costs a
    weight-memo miss)."""
    ps = PageState(num_pages, num_nodes)
    for kind, a, b, node, nodes in ops:
        lo, hi = sorted((a % num_pages, b % num_pages))
        hi += 1
        node = node % num_nodes
        home_before = ps.home.copy()
        version_before = ps.home_version
        if kind == 0:
            ps.first_touch(lo, hi, node)
        elif kind == 1:
            ps.bind(lo, hi, node)
        elif kind == 2:
            # a last-touch-only write, as a commit on a homed region makes
            ps.last[lo:hi] = node
        elif kind == 3:
            ps.interleave(lo, hi, [n % num_nodes for n in nodes])
        else:
            ps.first_touch_pages(np.arange(lo, hi, len(nodes)), node)
        assert ps.num_untouched == int((ps.home == -1).sum())
        assert ps.region_home_weights().tobytes() == _home_weights(ps).tobytes()
        if not np.array_equal(ps.home, home_before):
            assert ps.home_version != version_before


def _home_weights(pages: PageState) -> np.ndarray:
    """``PageState.region_home_weights`` counted from the ``home`` array."""
    homes = np.bincount(pages.home[pages.home >= 0], minlength=pages.num_nodes)
    total = homes.sum()
    return np.zeros(pages.num_nodes) if total == 0 else homes / total


# ----------------------------------------------------------------------
# chunk_access / commit against a from-scratch oracle
# ----------------------------------------------------------------------
def _page_span(pages: PageState, lo: float, hi: float) -> tuple[int, int]:
    """The pages a blocked chunk over ``[lo, hi)`` covers: never empty,
    and adjacent spans tile the region without gaps."""
    n = pages.num_pages
    start = min(int(lo * n), n - 1)
    stop = n if hi >= 1.0 else int(hi * n)
    return start, min(max(stop, start + 1), n)


def _oracle_access(region: DataRegion, bf: float, lo: float, hi: float, node: int):
    """``chunk_access``'s weights and reuse, recomputed from the page
    arrays alone with the expressions of the unmemoised implementation."""
    pages = region.pages
    n = pages.num_nodes
    weights = np.zeros(n)
    reuse = 0.0
    if bf > 0.0:
        start, stop = _page_span(pages, lo, hi)
        sl = pages.home[start:stop]
        touched = sl[sl != -1]
        counts = np.bincount(touched, minlength=n).astype(np.float64)
        counts[node] += (stop - start) - touched.size
        total = counts.sum()
        weights += bf * counts / total
        last = pages.last[start:stop]
        reuse += bf * (float((last == node).sum()) / (stop - start))
    if bf < 1.0:
        home_counts = np.bincount(pages.home[pages.home >= 0], minlength=n)
        total = home_counts.sum()
        home_w = np.zeros(n) if total == 0 else home_counts / total
        untouched_frac = 1.0 - home_counts.sum() / pages.num_pages
        uni = home_w * (1.0 - untouched_frac)
        uni[node] += untouched_frac
        total = uni.sum()
        if total <= 0.0:
            uni = np.zeros(n)
            uni[node] = 1.0
            total = 1.0
        weights += (1.0 - bf) * uni / total
        reuse += (1.0 - bf) * float(region.last_share[node])
    return weights, reuse


def _oracle_commit(region: DataRegion, bf: float, lo: float, hi: float, node: int) -> None:
    """``ChunkAccess.commit`` with no untouched-count shortcut and a
    per-page ``first_touch(p, p + 1)`` loop for the scattered pages."""
    pages = region.pages
    span_frac = hi - lo
    if bf > 0.0:
        start, stop = _page_span(pages, lo, hi)
        pages.first_touch(start, stop, node)
    if bf < 1.0:
        untouched = np.flatnonzero(pages.home == -1)
        if untouched.size:
            want = int(round(span_frac * pages.num_pages * (1.0 - bf)))
            if want > 0:
                take = untouched[:: max(1, untouched.size // want)][:want]
                for p in take:
                    pages.first_touch(int(p), int(p) + 1, node)
        region.blend_last_share(node, span_frac * (1.0 - bf))


def _assert_same_state(region: DataRegion, shadow: DataRegion) -> None:
    a, b = region.pages, shadow.pages
    assert np.array_equal(a.home, b.home)
    assert np.array_equal(a.last, b.last)
    assert a.region_home_weights().tobytes() == b.region_home_weights().tobytes()
    assert a.num_untouched == b.num_untouched
    assert region.last_share.tobytes() == shadow.last_share.tobytes()


def _rehome(region: DataRegion, kind: str, lo8: int, width8: int, node: int) -> None:
    """``bind`` or ``interleave`` the pages under an eighths-grid span."""
    pages = region.pages
    n = pages.num_pages
    start = min(lo8 * n // 8, n - 1)
    stop = max(start + 1, min(lo8 + width8, 8) * n // 8)
    if kind == "bind":
        pages.bind(start, stop, node)
    else:
        pages.interleave(start, stop, [node, (node + 1) % pages.num_nodes])


@settings(max_examples=80, deadline=None)
@given(
    num_pages=st.integers(min_value=1, max_value=48),
    num_nodes=st.integers(min_value=1, max_value=4),
    placement=st.sampled_from(["first_touch", "partial", "interleave", "bind"]),
    interleaved=st.integers(min_value=0, max_value=48),
    ops=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0, 0.3, 0.85]),
            st.integers(0, 7),
            st.integers(1, 8),
            st.integers(0, 3),
            st.sampled_from(["commit", "resolve", "bind", "interleave"]),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_chunk_access_and_commit_match_oracle(num_pages, num_nodes, placement, interleaved, ops):
    """Random sequences of chunk_access/commit, with spans on an eighths
    grid and every span resolved from every node, so (span, node, blocked
    fraction) keys repeat under one home version: every access equals the
    from-scratch oracle bit for bit, and every commit leaves the same page
    state as the per-page replay.

    Regions start untouched, partly interleaved or fully homed (so the
    node-free memo key serves every node from one entry), and ``bind`` /
    ``interleave`` re-home a span mid-sequence, moving the home version of
    a region that no commit would move again."""
    mm = MemoryMap(num_nodes=num_nodes, page_bytes=1024)
    region = mm.allocate("r", num_pages * 1024, min_pages=1)
    if placement == "partial" and interleaved:
        region.pages.interleave(0, min(interleaved, num_pages), list(range(num_nodes)))
    elif placement == "interleave":
        region.pages.interleave(0, num_pages, list(range(num_nodes)))
    elif placement == "bind":
        region.pages.bind(0, num_pages, interleaved % num_nodes)
    shadow = copy.deepcopy(region)
    for bf, lo8, width8, node, op in ops:
        lo = lo8 / 8
        hi = min(lo8 + width8, 8) / 8
        node %= num_nodes
        if op in ("bind", "interleave"):
            _rehome(region, op, lo8, width8, node)
            _rehome(shadow, op, lo8, width8, node)
            _assert_same_state(region, shadow)
        for exec_node in [*range(num_nodes), node]:
            acc = chunk_access(region, AccessPattern(bf), lo, hi, exec_node)
            weights, reuse = _oracle_access(shadow, bf, lo, hi, exec_node)
            assert acc.node_weights.tobytes() == weights.tobytes()
            assert acc.reuse_fraction == reuse
        if op == "commit":
            acc.commit()
            _oracle_commit(shadow, bf, lo, hi, node)
            _assert_same_state(region, shadow)


def test_node_weights_are_read_only():
    mm = MemoryMap(num_nodes=2, page_bytes=1024)
    region = mm.allocate("r", 16 * 1024, min_pages=1)
    for bf in (0.0, 0.5, 1.0):
        acc = chunk_access(region, AccessPattern(bf), 0.0, 0.5, 1)
        with pytest.raises(ValueError):
            acc.node_weights[0] = 1.0


@settings(max_examples=60)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    lo=st.floats(min_value=0.0, max_value=0.9),
    span=st.floats(min_value=0.01, max_value=0.5),
    exec_node=st.integers(min_value=0, max_value=3),
    prep=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)), max_size=10),
)
def test_chunk_access_weights_are_distribution(alpha, lo, span, exec_node, prep):
    mm = MemoryMap(num_nodes=4, page_bytes=1024)
    region = mm.allocate("r", 64 * 1024, min_pages=1)
    for page, node in prep:
        region.pages.first_touch(page, page + 1, node)
    hi = min(lo + span, 1.0)
    acc = chunk_access(region, AccessPattern.strided(alpha), lo, hi, exec_node)
    assert np.all(acc.node_weights >= -1e-12)
    assert acc.node_weights.sum() == np.float64(1.0) or abs(acc.node_weights.sum() - 1.0) < 1e-9
    assert 0.0 <= acc.reuse_fraction <= 1.0 + 1e-9


@settings(max_examples=60)
@given(
    n_tasks=st.integers(min_value=1, max_value=32),
    n_nodes=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_node_demand_conserves_bandwidth(n_tasks, n_nodes, data):
    """Total demand equals sum of per-task demands (no bytes invented)."""
    raw = data.draw(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n_nodes, max_size=n_nodes),
            min_size=n_tasks,
            max_size=n_tasks,
        )
    )
    w = np.array(raw)
    sums = w.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    w = w / sums
    mem = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=n_tasks, max_size=n_tasks)
    )
    mem = np.array(mem)
    d = node_demand(w, mem, core_bandwidth=10.0)
    assert d.shape == (n_nodes,)
    assert np.all(d >= 0)
    row_nonzero = w.sum(axis=1) > 0
    expected_total = 10.0 * mem[row_nonzero].sum()
    assert abs(d.sum() - expected_total) < 1e-6 * max(1.0, expected_total)


@settings(max_examples=60)
@given(
    demand=st.floats(min_value=0.0, max_value=1000.0),
    capacity=st.floats(min_value=0.1, max_value=100.0),
    gamma=st.floats(min_value=0.0, max_value=3.0),
)
def test_contention_slowdown_bounds(demand, capacity, gamma):
    s = contention_slowdown(np.array([demand]), np.array([capacity]), gamma)[0]
    assert s >= 1.0
    if demand <= capacity:
        assert s == 1.0
    # monotone in gamma when saturated
    if demand > capacity:
        s2 = contention_slowdown(np.array([demand]), np.array([capacity]), gamma + 0.5)[0]
        assert s2 >= s
