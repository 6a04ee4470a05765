"""Per-worker task queues with owner/thief ends.

Each worker thread owns one double-ended queue.  Which end the owner pops
and which end thieves steal from is a scheduler property:

* the LLVM-default scheduler pushes new tasks to the owner end and pops
  LIFO while thieves steal FIFO from the opposite end (classic
  work-stealing deque);
* ILAN enqueues a node's chunks in iteration order on the node's primary
  thread; the owner consumes from the *front* (preserving iteration order
  and therefore spatial locality) while thieves take from the *back*,
  where ILAN places the NUMA-stealable tail.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.runtime.task import Chunk

__all__ = ["WorkQueue", "QueueListener"]


class QueueListener:
    """Observer interface for queue empty <-> non-empty transitions."""

    def queue_nonempty(self, owner_id: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def queue_empty(self, owner_id: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class WorkQueue:
    """Double-ended task queue owned by one worker.

    ``owner_lifo`` selects the owner's pop end: ``True`` pops the most
    recently pushed task (LLVM default), ``False`` pops in push order
    (ILAN's in-order consumption).  Thieves always take from the end
    opposite the owner.
    """

    __slots__ = ("owner_id", "owner_lifo", "_dq", "listener")

    def __init__(self, owner_id: int, *, owner_lifo: bool = True):
        self.owner_id = owner_id
        self.owner_lifo = owner_lifo
        self._dq: deque[Chunk] = deque()
        # optional observer notified on empty <-> non-empty transitions;
        # the worker pool uses it to keep O(1) victim-candidate sets
        self.listener: "QueueListener | None" = None

    # ------------------------------------------------------------------
    def extend(self, chunks: list[Chunk]) -> None:
        """Owner-side push of ``chunks``, in order, at the back."""
        if not chunks:
            return
        was_empty = not self._dq
        self._dq.extend(chunks)
        if was_empty and self.listener is not None:
            self.listener.queue_nonempty(self.owner_id)

    def pop_own(self) -> Chunk | None:
        """Owner pops its next task; ``None`` when empty."""
        if not self._dq:
            return None
        chunk = self._dq.pop() if self.owner_lifo else self._dq.popleft()
        if not self._dq and self.listener is not None:
            self.listener.queue_empty(self.owner_id)
        return chunk

    def steal(self, predicate: Callable[[Chunk], bool] | None = None) -> Chunk | None:
        """Thief-side take from the end opposite the owner.

        ``predicate`` filters eligibility (e.g. "not NUMA-strict"); only
        the exposed thief-end task is considered — thieves do not rummage
        through a victim's queue, matching real work-stealing deques.
        """
        if not self._dq:
            return None
        victim_end = self._dq[0] if self.owner_lifo else self._dq[-1]
        if predicate is not None and not predicate(victim_end):
            return None
        chunk = self._dq.popleft() if self.owner_lifo else self._dq.pop()
        if not self._dq and self.listener is not None:
            self.listener.queue_empty(self.owner_id)
        return chunk

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._dq)
