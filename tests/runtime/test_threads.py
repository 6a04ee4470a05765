"""Unit tests for workers and the worker pool."""

import pytest

from repro.errors import RuntimeModelError
from repro.runtime.task import Chunk
from repro.runtime.threads import WorkerPool
from tests.conftest import make_work


def make_chunk(w, i=0):
    return Chunk(work=w, index=i, lo=i, hi=i + 1, lo_frac=i / 64, hi_frac=(i + 1) / 64,
                 body_time=0.001)


class TestPoolConstruction:
    def test_full_machine(self, small):
        pool = WorkerPool(small, list(range(16)))
        assert len(pool) == 16
        assert pool.core_ids() == list(range(16))
        assert pool.node_ids() == [0, 1, 2, 3]

    def test_partial_pool(self, small):
        pool = WorkerPool(small, [0, 1, 4, 5])
        assert pool.node_ids() == [0, 1]
        assert len(pool.by_node[0]) == 2
        assert 3 not in pool.by_node

    def test_worker_ids_dense_in_core_order(self, small):
        pool = WorkerPool(small, [5, 0, 9])
        assert [w.core_id for w in pool.workers] == [0, 5, 9]
        assert [w.worker_id for w in pool.workers] == [0, 1, 2]

    def test_empty_rejected(self, small):
        with pytest.raises(RuntimeModelError):
            WorkerPool(small, [])

    def test_duplicates_rejected(self, small):
        with pytest.raises(RuntimeModelError):
            WorkerPool(small, [0, 0])

    def test_worker_for_core_unknown(self, small):
        pool = WorkerPool(small, [0, 1])
        with pytest.raises(RuntimeModelError):
            pool.worker_for_core(9)


class TestNonemptyTracking:
    def test_initially_empty(self, small):
        pool = WorkerPool(small, list(range(8)))
        assert not pool.any_work()
        assert pool.node_queues_empty(0)

    def test_push_updates_sets(self, small_ctx, small):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(8)))
        pool.worker_for_core(2).queue.extend([make_chunk(w)])
        assert pool.any_work()
        assert pool.nonempty == {2}
        assert not pool.node_queues_empty(0)
        assert pool.node_queues_empty(1)

    def test_drain_clears_sets(self, small_ctx, small):
        w = make_work(small_ctx)
        pool = WorkerPool(small, list(range(8)))
        q = pool.worker_for_core(2).queue
        q.extend([make_chunk(w, 0)])
        q.pop_own()
        assert not pool.any_work()
        assert pool.node_queues_empty(0)
