"""Bounded admission control with typed backpressure.

The service admits jobs through one :class:`AdmissionQueue`: a bounded
FIFO whose :meth:`AdmissionQueue.offer` is synchronous and *never blocks*
— when the queue is saturated the submission is rejected immediately with
a typed :class:`~repro.serve.protocol.AdmissionRejected` (``queue_full``),
and once draining has begun every new submission is rejected with
``draining``.  Rejection instead of unbounded buffering is the
backpressure contract: a saturated service tells clients to back off
rather than accumulating latency silently.

Worker coroutines consume via :meth:`AdmissionQueue.take`, which returns
``None`` once the queue is draining *and* empty — the workers' shutdown
signal.  :meth:`AdmissionQueue.join` resolves when every admitted item has
been marked done, which is what graceful drain awaits.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Generic, TypeVar

from repro.serve.protocol import AdmissionRejected

__all__ = ["AdmissionQueue"]

T = TypeVar("T")


class AdmissionQueue(Generic[T]):
    """Bounded FIFO: synchronous non-blocking admission, async consumption."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"admission queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque[T] = deque()
        self._unfinished = 0
        self._draining = False
        self._takers = asyncio.Condition()
        self._all_done = asyncio.Event()
        self._all_done.set()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs admitted but not yet taken by a worker."""
        return len(self._items)

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    def offer(self, item: T) -> None:
        """Admit ``item`` or raise :class:`AdmissionRejected` — never blocks.

        Synchronous on purpose: callers check-and-enqueue atomically with
        respect to the event loop, so the capacity bound cannot be raced
        past by concurrent submissions.
        """
        if self._draining:
            raise AdmissionRejected(
                "draining",
                "service is draining and accepts no new jobs",
                depth=len(self._items),
                capacity=self.capacity,
            )
        if len(self._items) >= self.capacity:
            raise AdmissionRejected(
                "queue_full",
                f"admission queue is saturated ({self.capacity} queued)",
                depth=len(self._items),
                capacity=self.capacity,
            )
        self._items.append(item)
        self._unfinished += 1
        self._all_done.clear()
        self._notify()

    def requeue(self, item: T) -> None:
        """Re-admit an item after a recoverable fault — never rejects.

        The item was already admitted once, so the backpressure contract
        does not apply: it bypasses the capacity bound (the service's
        attempt budget bounds the extra work) and is accepted even while
        draining, because graceful drain must still account for every
        admitted job.  The caller invokes this *before* the matching
        :meth:`task_done` of the faulted attempt so ``unfinished`` never
        momentarily reads zero.
        """
        self._items.append(item)
        self._unfinished += 1
        self._all_done.clear()
        self._notify()

    async def take(self) -> T | None:
        """Next admitted item in FIFO order; ``None`` once drained dry."""
        async with self._takers:
            await self._takers.wait_for(lambda: self._items or self._draining)
            if self._items:
                return self._items.popleft()
            return None  # draining and empty: worker shutdown signal

    def task_done(self) -> None:
        """Mark one taken item as fully processed."""
        if self._unfinished <= 0:
            raise ValueError("task_done() called more times than items admitted")
        self._unfinished -= 1
        if self._unfinished == 0:
            self._all_done.set()

    # ------------------------------------------------------------------
    def evict_newest(self, count: int) -> list[T]:
        """Remove up to ``count`` items from the *tail* (the youngest).

        The federation's saturation rebalance: the youngest waiting
        items have accrued the least queue position, so moving them to
        another shard costs the least fairness — the head of the FIFO
        (the oldest waiter) is never touched, preserving the per-shard
        no-starvation order for everything that stays.  Each evicted
        item's admission is unwound (``unfinished`` decremented), as if
        it had been taken and completed here.
        """
        if count < 0:
            raise ValueError(f"cannot evict a negative count, got {count}")
        evicted: list[T] = []
        while self._items and len(evicted) < count:
            evicted.append(self._items.pop())
            self._unfinished -= 1
        if self._unfinished == 0:
            self._all_done.set()
        return evicted

    def clear(self) -> list[T]:
        """Shard death: empty the queue and zero the unfinished count.

        Every queued item is returned (oldest first) for the caller to
        requeue elsewhere; in-flight accounting is forfeited — the
        worker coroutines of a killed shard are already cancelled, so no
        ``task_done`` is ever coming for them.
        """
        drained = list(self._items)
        self._items.clear()
        self._unfinished = 0
        self._all_done.set()
        return drained

    # ------------------------------------------------------------------
    def start_drain(self) -> None:
        """Stop admitting; wake idle workers so they can observe the drain."""
        self._draining = True
        self._notify()

    async def join(self) -> None:
        """Wait until every admitted item has been marked done."""
        await self._all_done.wait()

    def _notify(self) -> None:
        async def _wake() -> None:
            async with self._takers:
                self._takers.notify_all()

        # offer()/start_drain() are sync; schedule the wake-up on the loop
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # no loop (e.g. unit test poking state): nothing to wake
        loop.create_task(_wake())
