"""Unit tests for the bounded admission queue's backpressure contract."""

import asyncio

import pytest

from repro.serve.admission import AdmissionQueue
from repro.serve.protocol import AdmissionRejected


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        AdmissionQueue(0)


def test_offer_fills_to_capacity_then_rejects_typed():
    q: AdmissionQueue[int] = AdmissionQueue(3)
    for i in range(3):
        q.offer(i)
    assert q.depth == 3
    with pytest.raises(AdmissionRejected) as exc_info:
        q.offer(99)
    exc = exc_info.value
    assert exc.code == "queue_full"
    assert (exc.depth, exc.capacity) == (3, 3)
    assert q.depth == 3  # rejected item was not admitted


def test_draining_rejects_even_when_empty():
    q: AdmissionQueue[int] = AdmissionQueue(4)
    q.start_drain()
    with pytest.raises(AdmissionRejected) as exc_info:
        q.offer(1)
    assert exc_info.value.code == "draining"


def test_take_is_fifo():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(8)
        for i in range(5):
            q.offer(i)
        return [await q.take() for _ in range(5)]

    assert asyncio.run(run()) == [0, 1, 2, 3, 4]


def test_take_returns_none_when_drained_dry():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(2)
        q.offer(7)
        q.start_drain()
        return await q.take(), await q.take()

    assert asyncio.run(run()) == (7, None)


def test_idle_taker_wakes_on_drain():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(2)
        taker = asyncio.create_task(q.take())
        await asyncio.sleep(0.01)  # taker is parked waiting
        q.start_drain()
        return await asyncio.wait_for(taker, timeout=2)

    assert asyncio.run(run()) is None


def test_idle_taker_wakes_on_offer():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(2)
        taker = asyncio.create_task(q.take())
        await asyncio.sleep(0.01)
        q.offer(42)
        return await asyncio.wait_for(taker, timeout=2)

    assert asyncio.run(run()) == 42


def test_join_waits_for_task_done():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(2)
        q.offer(1)
        q.offer(2)
        await q.take()
        q.task_done()
        joiner = asyncio.create_task(q.join())
        await asyncio.sleep(0.01)
        assert not joiner.done()  # one item still unfinished
        await q.take()
        q.task_done()
        await asyncio.wait_for(joiner, timeout=2)

    asyncio.run(run())


def test_join_resolves_immediately_when_nothing_admitted():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(2)
        await asyncio.wait_for(q.join(), timeout=2)

    asyncio.run(run())


def test_task_done_overflow_raises():
    q: AdmissionQueue[int] = AdmissionQueue(2)
    with pytest.raises(ValueError):
        q.task_done()


def test_saturate_then_consume_reopens_admission():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(1)
        q.offer(1)
        with pytest.raises(AdmissionRejected):
            q.offer(2)
        await q.take()
        q.task_done()
        q.offer(3)  # capacity is depth-based: freed by the take
        return await q.take()

    assert asyncio.run(run()) == 3


def test_requeue_bypasses_capacity_and_draining():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(1)
        q.offer(1)
        # recovery re-admission is exempt from the capacity bound ...
        q.requeue(2)
        assert q.depth == 2
        q.start_drain()
        # ... and from the draining gate (the job was already admitted)
        q.requeue(3)
        got = [await q.take(), await q.take(), await q.take()]
        for _ in got:
            q.task_done()
        await asyncio.wait_for(q.join(), timeout=2)
        return got

    assert asyncio.run(run()) == [1, 2, 3]


def test_requeue_keeps_join_blocked_until_retry_finishes():
    async def run():
        q: AdmissionQueue[int] = AdmissionQueue(2)
        q.offer(1)
        item = await q.take()
        # crash recovery: requeue BEFORE task_done so unfinished never
        # momentarily hits zero (else join() would resolve with the job lost)
        q.requeue(item)
        q.task_done()
        joiner = asyncio.create_task(q.join())
        await asyncio.sleep(0)
        assert not joiner.done()  # the retry is still outstanding
        await q.take()
        q.task_done()
        await asyncio.wait_for(joiner, timeout=2)

    asyncio.run(run())
