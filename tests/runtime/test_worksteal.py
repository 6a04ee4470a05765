"""Unit tests for work acquisition and the steal policies."""

import copy

import pytest

from repro.runtime.overhead import OverheadLedger, OverheadParams
from repro.runtime.task import Chunk
from repro.runtime.threads import WorkerPool
from repro.runtime.worksteal import (
    HierarchicalStealPolicy,
    NoStealPolicy,
    RandomStealPolicy,
)
from repro.sim.rng import stream
from tests.conftest import make_work


@pytest.fixture
def params():
    return OverheadParams()


@pytest.fixture
def rng():
    return stream(11, "test", "steal")


def fill(pool, core, work, indices, strict=()):
    chunks = []
    for i in indices:
        c = Chunk(work=work, index=i, lo=i, hi=i + 1, lo_frac=i / 64,
                  hi_frac=(i + 1) / 64, body_time=0.001, strict=i in strict)
        chunks.append(c)
    pool.worker_for_core(core).queue.extend(chunks)
    return chunks


class TestAcquireOwnQueue:
    def test_own_queue_first(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(8)))
        fill(pool, 3, w, [0, 1])
        led = OverheadLedger()
        acq = RandomStealPolicy().acquire(pool.worker_for_core(3), pool, rng, params, led)
        assert acq.source == "own"
        assert acq.overhead == params.dequeue
        assert led.dequeue > 0

    def test_nothing_anywhere(self, small, params, rng):
        pool = WorkerPool(small, list(range(8)))
        led = OverheadLedger()
        acq = RandomStealPolicy().acquire(pool.worker_for_core(0), pool, rng, params, led)
        assert acq is None


class TestRandomSteal:
    def test_steals_from_any_victim(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 15, w, [0])  # victim on the far socket
        led = OverheadLedger()
        acq = RandomStealPolicy().acquire(pool.worker_for_core(0), pool, rng, params, led)
        assert acq is not None
        assert acq.source == "steal_remote"
        assert acq.victim_core == 15
        assert acq.chunk.stolen

    def test_local_victim_charged_local(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, [0, 1])
        fill(pool, 1, w, [0])
        led = OverheadLedger()
        acq = RandomStealPolicy().acquire(pool.worker_for_core(0), pool, rng, params, led)
        assert acq.source == "steal_local"
        assert led.steal_local == pytest.approx(params.steal_local)

    def test_ignores_topology(self, small, small_ctx, params, rng):
        """Random stealing takes strict-marked tasks too (baseline never
        marks them, but the policy itself is topology-blind)."""
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 12, w, [0], strict={0})
        acq = RandomStealPolicy().acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq is not None


class TestHierarchicalSteal:
    def test_prefers_local_node(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 1, w, [0])   # same node as thief core 0
        fill(pool, 15, w, [1])  # remote
        acq = HierarchicalStealPolicy(allow_inter_node=True).acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq.source == "steal_local"
        assert acq.victim_core == 1

    def test_strict_policy_never_crosses_nodes(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 15, w, [0])
        acq = HierarchicalStealPolicy(allow_inter_node=False).acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq is None

    def test_full_policy_crosses_when_node_drained(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 15, w, [0])
        acq = HierarchicalStealPolicy(allow_inter_node=True).acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq.source == "steal_remote"

    def test_full_policy_blocked_while_own_node_has_work(self, small, small_ctx, params, rng):
        """Inter-node stealing requires the thief's node to be fully idle;
        here a sibling still holds work the thief cannot reach... it can
        reach it (local steal) — so give the sibling a queue the thief
        drains first."""
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 1, w, [5])
        fill(pool, 15, w, [6])
        acq = HierarchicalStealPolicy(allow_inter_node=True).acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq.source == "steal_local"  # local first, never remote here

    def test_strict_chunks_never_stolen_remotely(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 15, w, [0], strict={0})
        led = OverheadLedger()
        acq = HierarchicalStealPolicy(allow_inter_node=True).acquire(
            pool.worker_for_core(0), pool, rng, params, led
        )
        assert acq is None
        assert led.counts.get("steal_fail", 0) >= 1

    def test_stealable_tail_behind_strict_head(self, small, small_ctx, params, rng):
        """ILAN layout: strict prefix, stealable tail; remote thieves reach
        the tail because they steal from the back of a FIFO-owner queue."""
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)), owner_lifo=False)
        fill(pool, 15, w, [0, 1, 2, 3], strict={0, 1, 2})
        acq = HierarchicalStealPolicy(allow_inter_node=True).acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq is not None
        assert acq.chunk.index == 3


class TestNoSteal:
    def test_never_steals(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 1, w, [0])
        acq = NoStealPolicy().acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq is None

    def test_own_queue_still_works(self, small, small_ctx, params, rng):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 0, w, [0])
        acq = NoStealPolicy().acquire(
            pool.worker_for_core(0), pool, rng, params, OverheadLedger()
        )
        assert acq.source == "own"


class TestExhausted:
    """``exhausted``: every later acquire of the worker in this encounter
    fails with no side effect, so the executor may stop asking."""

    def test_strict_policy_exhausted_exactly_when_node_drained(
        self, small, small_ctx, params, rng
    ):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        strict = HierarchicalStealPolicy(allow_inter_node=False)

        def answers():
            return {
                worker.core_id: strict.exhausted(worker, pool) for worker in pool
            }

        def drained():
            return {
                worker.core_id: pool.node_queues_empty(worker.node_id) for worker in pool
            }

        assert all(answers().values())
        fill(pool, 1, w, [0])        # node 0: a sibling's queue
        fill(pool, 4, w, [1, 2])     # node 1: the worker's own queue
        assert answers() == drained()
        assert not any(answers()[c] for c in range(8))
        assert all(answers()[c] for c in range(8, 16))
        strict.acquire(pool.worker_for_core(0), pool, rng, params, OverheadLedger())
        assert answers() == drained()
        assert all(answers()[c] for c in range(4))
        pool.worker_for_core(4).queue.pop_own()
        assert not answers()[5]
        pool.worker_for_core(4).queue.pop_own()
        assert all(answers().values())

    def test_exhausted_acquire_draws_and_charges_nothing(
        self, small, small_ctx, params, rng
    ):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        fill(pool, 15, w, [0, 1])  # work on node 3 only
        strict = HierarchicalStealPolicy(allow_inter_node=False)
        thief = pool.worker_for_core(0)
        assert strict.exhausted(thief, pool)
        twin = copy.deepcopy(rng)
        ledger = OverheadLedger()
        assert strict.acquire(thief, pool, rng, params, ledger) is None
        assert rng.integers(1 << 62) == twin.integers(1 << 62)
        assert ledger == OverheadLedger()

    @pytest.mark.parametrize(
        "policy",
        [RandomStealPolicy(), HierarchicalStealPolicy(allow_inter_node=True), NoStealPolicy()],
        ids=["random", "full", "none"],
    )
    def test_other_policies_never_exhausted(self, small, small_ctx, policy):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(16)))
        assert not any(policy.exhausted(worker, pool) for worker in pool)
        fill(pool, 15, w, [0], strict={0})
        assert not any(policy.exhausted(worker, pool) for worker in pool)
