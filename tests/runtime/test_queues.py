"""Unit tests for the work-stealing deques."""

import pytest

from repro.runtime.queues import WorkQueue
from repro.runtime.task import Chunk
from tests.conftest import make_work


@pytest.fixture
def chunks(tiny_ctx):
    w = make_work(tiny_ctx, total_iters=64, num_tasks=8)
    return [
        Chunk(work=w, index=i, lo=i * 8, hi=(i + 1) * 8, lo_frac=i / 8, hi_frac=(i + 1) / 8,
              body_time=0.001)
        for i in range(8)
    ]


class TestLifoDiscipline:
    """LLVM default: owner pops the most recent push; thieves take the oldest."""

    def test_owner_pops_lifo(self, chunks):
        q = WorkQueue(0, owner_lifo=True)
        q.extend(chunks[:3])
        assert q.pop_own().index == 2
        assert q.pop_own().index == 1

    def test_thief_steals_fifo(self, chunks):
        q = WorkQueue(0, owner_lifo=True)
        q.extend(chunks[:3])
        assert q.steal().index == 0
        assert q.steal().index == 1


class TestFifoDiscipline:
    """ILAN: owner consumes in iteration order; thieves take from the tail."""

    def test_owner_pops_fifo(self, chunks):
        q = WorkQueue(0, owner_lifo=False)
        q.extend(chunks[:3])
        assert q.pop_own().index == 0

    def test_thief_steals_from_tail(self, chunks):
        q = WorkQueue(0, owner_lifo=False)
        q.extend(chunks[:3])
        assert q.steal().index == 2


class TestStealPredicate:
    def test_ineligible_exposed_task_blocks_steal(self, chunks):
        q = WorkQueue(0, owner_lifo=False)
        chunks[2].strict = True
        q.extend(chunks[:3])  # tail (index 2) is strict
        assert q.steal(predicate=lambda c: not c.strict) is None
        assert len(q) == 3  # nothing removed

    def test_eligible_task_stolen(self, chunks):
        q = WorkQueue(0, owner_lifo=False)
        chunks[0].strict = True
        q.extend(chunks[:3])
        got = q.steal(predicate=lambda c: not c.strict)
        assert got.index == 2


class TestBookkeeping:
    def test_empty_pops_return_none(self):
        q = WorkQueue(0)
        assert q.pop_own() is None
        assert q.steal() is None


class TestListener:
    class Recorder:
        def __init__(self):
            self.events = []

        def queue_nonempty(self, owner):
            self.events.append(("nonempty", owner))

        def queue_empty(self, owner):
            self.events.append(("empty", owner))

    def test_transitions(self, chunks):
        q = WorkQueue(5)
        rec = self.Recorder()
        q.listener = rec
        q.extend(chunks[:1])
        q.extend(chunks[1:2])  # no transition
        q.extend([])  # no transition either
        q.pop_own()
        q.pop_own()
        assert rec.events == [("nonempty", 5), ("empty", 5)]

    def test_steal_transition(self, chunks):
        q = WorkQueue(5)
        rec = self.Recorder()
        q.listener = rec
        q.extend(chunks[:1])
        q.steal()
        assert rec.events == [("nonempty", 5), ("empty", 5)]
