"""Lease-arbitration tests: unit behaviour plus the property-tested
invariants — concurrent leases pairwise disjoint and inside the machine's
node set, and strict-FIFO granting so no queued job starves."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.arbiter import LeaseLedger, NodeArbiter
from repro.serve.protocol import LeaseError
from repro.topology.presets import default_distances, dual_socket_small, tiny_two_node


def _ledger():
    topo = dual_socket_small()
    return LeaseLedger(topo, default_distances(topo))


def _free(ledger):
    """The free nodes as the metrics snapshot reports them."""
    return sorted(n for n, owner in ledger.lease_map().items() if owner is None)


# ----------------------------------------------------------------------
# LeaseLedger units
# ----------------------------------------------------------------------
def test_grant_and_release_round_trip():
    ledger = _ledger()
    mask = ledger.grant("a", 2)
    assert mask is not None and mask.count() == 2
    assert set(_free(ledger)) == set(range(4)) - set(mask.indices())
    released = ledger.release("a")
    assert released.bits == mask.bits
    assert _free(ledger) == [0, 1, 2, 3]


def test_grant_returns_none_when_insufficient():
    ledger = _ledger()
    assert ledger.grant("a", 3) is not None
    assert ledger.grant("b", 2) is None  # only one node free
    assert ledger.grant("b", 1) is not None


def test_double_grant_and_unknown_release_raise():
    ledger = _ledger()
    ledger.grant("a", 1)
    with pytest.raises(LeaseError, match="already holds"):
        ledger.grant("a", 1)
    with pytest.raises(LeaseError, match="holds no lease"):
        ledger.release("ghost")


@pytest.mark.parametrize("bad", [0, -1, 5, 1.5, "two"])
def test_impossible_requests_raise(bad):
    with pytest.raises(LeaseError):
        _ledger().grant("a", bad)


def test_preferred_node_out_of_range_raises():
    with pytest.raises(LeaseError, match="outside"):
        _ledger().grant("a", 1, preferred=4)


def test_preferred_node_seeds_growth():
    ledger = _ledger()
    mask = ledger.grant("a", 1, preferred=3)
    assert mask.indices() == [3]


def test_growth_prefers_same_socket():
    # seed on socket 1 (nodes 2, 3): a two-node lease stays on that socket
    ledger = _ledger()
    mask = ledger.grant("a", 2, preferred=2)
    assert mask.indices() == [2, 3]


def test_taken_preferred_falls_back_to_nearest_free():
    ledger = _ledger()
    ledger.grant("a", 1, preferred=2)
    # node 2 is taken; nearest free to it is its socket mate, node 3
    mask = ledger.grant("b", 1, preferred=2)
    assert mask.indices() == [3]


def test_lease_map_names_owners():
    ledger = _ledger()
    ledger.grant("a", 2, preferred=0)
    assert ledger.lease_map() == {0: "a", 1: "a", 2: None, 3: None}


def test_distance_matrix_size_mismatch_raises():
    with pytest.raises(LeaseError, match="distance matrix"):
        LeaseLedger(dual_socket_small(), default_distances(tiny_two_node()))


# ----------------------------------------------------------------------
# properties: disjointness + node-set containment under any history
# ----------------------------------------------------------------------
def _check_invariants(ledger, all_nodes):
    leased = []
    for lease in ledger.leases().values():
        leased.extend(lease.nodes)
    assert len(leased) == len(set(leased)), "leases overlap"
    assert set(leased) <= all_nodes, "lease outside the machine's node set"
    assert set(_free(ledger)) | set(leased) == all_nodes
    assert set(_free(ledger)) & set(leased) == set()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ledger_invariants_under_random_grant_release(data):
    topo = dual_socket_small()
    ledger = LeaseLedger(topo, default_distances(topo))
    all_nodes = set(topo.node_ids())
    active: list[str] = []
    next_id = 0
    for _ in range(data.draw(st.integers(0, 25), label="steps")):
        grant = not active or data.draw(st.booleans(), label="grant?")
        if grant:
            size = data.draw(st.integers(1, topo.num_nodes), label="size")
            preferred = data.draw(
                st.one_of(st.none(), st.integers(0, topo.num_nodes - 1)),
                label="preferred",
            )
            free_before = len(_free(ledger))
            job = f"job-{next_id}"
            next_id += 1
            mask = ledger.grant(job, size, preferred)
            if size <= free_before:
                assert mask is not None and mask.count() == size
                active.append(job)
            else:
                assert mask is None  # refused, not partially granted
        else:
            idx = data.draw(st.integers(0, len(active) - 1), label="victim")
            ledger.release(active.pop(idx))
        _check_invariants(ledger, all_nodes)


# ----------------------------------------------------------------------
# NodeArbiter: strict FIFO ⇒ no starvation
# ----------------------------------------------------------------------
async def _drive_fifo(sizes):
    topo = dual_socket_small()
    arbiter = NodeArbiter(LeaseLedger(topo, default_distances(topo)))
    grant_order: list[int] = []

    async def job(i, size):
        await arbiter.acquire(f"job-{i}", size)
        grant_order.append(i)
        await asyncio.sleep(0)  # hold the lease across at least one tick
        await arbiter.release(f"job-{i}")

    tasks = []
    for i, size in enumerate(sizes):
        tasks.append(asyncio.create_task(job(i, size)))
        # wait until job i is in the line (or already granted) so the
        # submission order is exactly 0, 1, 2, ...
        while f"job-{i}" not in arbiter.waiting and i not in grant_order:
            await asyncio.sleep(0)
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=10)
    return grant_order, arbiter


@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_arbiter_is_strict_fifo_so_no_job_starves(sizes):
    grant_order, arbiter = asyncio.run(_drive_fifo(sizes))
    # every job was granted, in exact submission order: a big job at the
    # head is never overtaken (starved) by later small ones
    assert grant_order == list(range(len(sizes)))
    assert arbiter.waiting == []
    assert _free(arbiter.ledger) == [0, 1, 2, 3]


def test_small_job_waits_behind_blocked_large_one():
    """Head-of-line blocking: the no-starvation trade-off made concrete."""

    async def run():
        topo = dual_socket_small()
        arbiter = NodeArbiter(LeaseLedger(topo, default_distances(topo)))
        await arbiter.acquire("holder", 3)  # one node left free
        events: list[str] = []

        async def large():
            await arbiter.acquire("large", 4)
            events.append("large")
            await arbiter.release("large")

        async def small():
            await arbiter.acquire("small", 1)
            events.append("small")
            await arbiter.release("small")

        t_large = asyncio.create_task(large())
        while "large" not in arbiter.waiting:
            await asyncio.sleep(0)
        t_small = asyncio.create_task(small())
        while "small" not in arbiter.waiting:
            await asyncio.sleep(0)
        # one node is free and would fit "small", but "large" heads the line
        await asyncio.sleep(0.02)
        assert events == []
        await arbiter.release("holder")
        await asyncio.wait_for(asyncio.gather(t_large, t_small), timeout=10)
        return events

    assert asyncio.run(run()) == ["large", "small"]


def test_hopeless_request_raises_without_joining_line():
    async def run():
        topo = tiny_two_node()
        arbiter = NodeArbiter(LeaseLedger(topo, default_distances(topo)))
        with pytest.raises(LeaseError):
            await arbiter.acquire("greedy", 3)  # machine has 2 nodes
        assert arbiter.waiting == []
        # the line is not poisoned: a sane request still succeeds
        mask = await arbiter.acquire("ok", 2)
        assert mask.count() == 2

    asyncio.run(run())


def test_cancelled_waiter_leaves_the_line():
    async def run():
        topo = tiny_two_node()
        arbiter = NodeArbiter(LeaseLedger(topo, default_distances(topo)))
        await arbiter.acquire("holder", 2)
        waiter = asyncio.create_task(arbiter.acquire("doomed", 1))
        while "doomed" not in arbiter.waiting:
            await asyncio.sleep(0)
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        assert arbiter.waiting == []
        await arbiter.release("holder")
        # arbitration still works after the cancellation
        mask = await asyncio.wait_for(arbiter.acquire("next", 1), timeout=10)
        assert mask.count() == 1

    asyncio.run(run())


def test_reclaim_releases_a_dead_owners_lease_and_wakes_waiters():
    async def run():
        topo = tiny_two_node()
        arbiter = NodeArbiter(LeaseLedger(topo, default_distances(topo)))
        held = await arbiter.acquire("crashed-job", 2)
        waiter = asyncio.create_task(arbiter.acquire("blocked-job", 1))
        while "blocked-job" not in arbiter.waiting:
            await asyncio.sleep(0)
        reclaimed = await arbiter.reclaim("crashed-job")
        assert reclaimed is not None and reclaimed.bits == held.bits
        # the reclaim frees the nodes and wakes the FIFO line
        mask = await asyncio.wait_for(waiter, timeout=10)
        assert mask.count() == 1

    asyncio.run(run())


def test_reclaim_of_unknown_owner_is_a_noop():
    async def run():
        topo = tiny_two_node()
        arbiter = NodeArbiter(LeaseLedger(topo, default_distances(topo)))
        assert await arbiter.reclaim("never-leased") is None
        # double reclaim: second call finds nothing
        await arbiter.acquire("job", 1)
        assert await arbiter.reclaim("job") is not None
        assert await arbiter.reclaim("job") is None

    asyncio.run(run())
