"""Property-based tests for the federation's consistent-hash ring.

The two load-bearing guarantees (hypothesis):

* **balance** — with 64 virtual nodes per member, tenant ownership over
  a fleet of >= 8 shards stays within a constant factor of uniform;
* **minimal remap** — removing a member (a confirmed death) moves only
  the tenants it owned, and a member joining moves only tenants *onto*
  the newcomer.  Nobody else's placement changes, which is what makes
  shard death cheap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.federation.ring import ConsistentHashRing, RingError

seeds = st.integers(min_value=0, max_value=2**20)
shard_counts = st.integers(min_value=8, max_value=16)

TENANTS = [f"tenant-{i}" for i in range(1000)]


def _ring(seed: int, count: int, vnodes: int = 64) -> ConsistentHashRing:
    return ConsistentHashRing(
        [f"shard-{i}" for i in range(count)], seed=seed, vnodes=vnodes
    )


def _owners(ring: ConsistentHashRing, tenants) -> dict[str, str]:
    """Each tenant's owner as the router places it: the head of its
    preference order."""
    return {tenant: ring.preference(tenant)[0] for tenant in tenants}


@settings(max_examples=25, deadline=None)
@given(seed=seeds, count=shard_counts)
def test_balance_within_constant_factor_of_uniform(seed, count):
    ring = _ring(seed, count)
    owners = _owners(ring, TENANTS)
    loads = {m: 0 for m in ring.members}
    for owner in owners.values():
        loads[owner] += 1
    mean = len(TENANTS) / count
    assert max(loads.values()) <= 2.0 * mean
    assert min(loads.values()) >= 0.25 * mean


@settings(max_examples=25, deadline=None)
@given(seed=seeds, count=shard_counts, victim=st.integers(min_value=0, max_value=15))
def test_leave_remaps_only_the_departed_members_tenants(seed, count, victim):
    ring = _ring(seed, count)
    departed = f"shard-{victim % count}"
    before = _owners(ring, TENANTS)
    ring.remove(departed)
    after = _owners(ring, TENANTS)
    for tenant in TENANTS:
        if before[tenant] == departed:
            assert after[tenant] != departed
        else:
            assert after[tenant] == before[tenant], (
                f"{tenant} moved {before[tenant]} -> {after[tenant]} though "
                f"only {departed} left the ring"
            )


@settings(max_examples=25, deadline=None)
@given(seed=seeds, count=shard_counts)
def test_join_remaps_only_onto_the_newcomer(seed, count):
    ring = _ring(seed, count)
    before = _owners(ring, TENANTS)
    ring.add("shard-new")
    after = _owners(ring, TENANTS)
    for tenant in TENANTS:
        if after[tenant] != before[tenant]:
            assert after[tenant] == "shard-new", (
                f"{tenant} moved {before[tenant]} -> {after[tenant]} though "
                "only shard-new joined"
            )


@settings(max_examples=25, deadline=None)
@given(seed=seeds, count=shard_counts)
def test_leave_then_rejoin_restores_ownership(seed, count):
    ring = _ring(seed, count)
    before = _owners(ring, TENANTS)
    ring.remove("shard-0")
    ring.add("shard-0")
    assert _owners(ring, TENANTS) == before


@settings(max_examples=15, deadline=None)
@given(seed=seeds, count=shard_counts)
def test_placement_independent_of_join_order(seed, count):
    members = [f"shard-{i}" for i in range(count)]
    forward = ConsistentHashRing(members, seed=seed)
    backward = ConsistentHashRing(reversed(members), seed=seed)
    sample = TENANTS[:100]
    assert _owners(forward, sample) == _owners(backward, sample)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, count=shard_counts)
def test_preference_starts_at_owner_and_covers_every_member(seed, count):
    ring = _ring(seed, count)
    for tenant in TENANTS[:50]:
        order = ring.preference(tenant)
        assert order[0] == ring.owner(tenant)
        assert sorted(order) == ring.members


def test_ring_edge_cases():
    ring = ConsistentHashRing()
    with pytest.raises(RingError):
        ring.owner("anyone")
    ring.add("only")
    assert ring.owner("anyone") == "only"
    assert ring.preference("anyone") == ["only"]
    with pytest.raises(RingError):
        ring.add("only")
    with pytest.raises(RingError):
        ring.remove("ghost")
    with pytest.raises(RingError):
        ring.add("")
    with pytest.raises(RingError):
        ConsistentHashRing(["a"], vnodes=0)
