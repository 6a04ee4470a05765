"""Discrete-event core: simulation clock and time-ordered event queue.

The taskloop executor advances the clock with variable-size steps (rate
advance, see :mod:`repro.sim.progress`); auxiliary timed events — noise
transitions, measurement epochs — live in the :class:`EventQueue` and bound
each step so state changes are never skipped over.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError

__all__ = ["Clock", "Event", "EventQueue", "Simulator"]

#: Relative tolerance for "same simulated time": two float timestamps
#: produced by different accumulation orders agree only to a few ulps, so
#: an absolute epsilon stops resolving same-time comparisons once the
#: clock grows past ~0.01 s.  Shared by ``EventQueue.pop_due`` (the PR 3
#: bug), ``Clock.advance_to``'s backwards guard, and the timeline window
#: filter in :mod:`repro.exp.timeline`.
DUE_REL_TOL = 1e-12
DUE_ABS_TOL = 1e-15


class Clock:
    """Monotonic simulation clock in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        if not math.isfinite(start) or start < 0.0:
            raise SimulationError(f"clock must start at a finite non-negative time, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` (must be finite and >= 0)."""
        if not math.isfinite(dt) or dt < 0.0:
            raise SimulationError(f"cannot advance clock by {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to absolute time ``t`` (>= now).

        "Backwards" uses the relative ``DUE_REL_TOL`` idiom: a target a
        few ulps below ``now`` (accumulated-float noise from a different
        summation order) clamps to ``now`` instead of raising, at any
        clock magnitude.
        """
        if not math.isfinite(t) or (
            t < self._now
            and not math.isclose(t, self._now, rel_tol=DUE_REL_TOL, abs_tol=DUE_ABS_TOL)
        ):
            raise SimulationError(f"cannot move clock backwards to {t} from {self._now}")
        self._now = max(self._now, t)
        return self._now


@dataclass(order=True)
class Event:
    """A timed callback; ordering is (time, insertion sequence)."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    tag: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    _queue: "EventQueue | None" = field(compare=False, default=None, repr=False)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()


class EventQueue:
    """Min-heap of :class:`Event`, stable for simultaneous events.

    The heap stores ``(time, seq, Event)`` tuples rather than the events
    themselves: sift comparisons then run on plain tuples at C speed
    instead of re-entering the dataclass ``__lt__`` (which builds a
    comparison tuple per probe), and the hot-path operations below avoid
    per-call allocation entirely — ``pop_due`` fills a caller-owned buffer
    and ``next_time`` peeks without popping.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        # live (non-cancelled) event count, maintained incrementally so
        # __len__/is_empty are O(1) in the executor's hot loop
        self._live = 0

    def schedule(self, time: float, action: Callable[[], None], tag: str = "") -> Event:
        if not math.isfinite(time) or time < 0.0:
            raise SimulationError(f"cannot schedule event at time {time}")
        ev = Event(time=time, seq=next(self._counter), action=action, tag=tag,
                   _queue=self)
        heapq.heappush(self._heap, (ev.time, ev.seq, ev))
        self._live += 1
        return ev

    def _note_cancelled(self) -> None:
        self._live -= 1

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    @staticmethod
    def _due(time: float, now: float) -> bool:
        return time <= now or math.isclose(
            time, now, rel_tol=DUE_REL_TOL, abs_tol=DUE_ABS_TOL
        )

    def next_time(self) -> float:
        """Time of the earliest pending event, ``inf`` when empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else math.inf

    def pop_due(self, now: float, out: list[Event] | None = None) -> list[Event]:
        """Pop every non-cancelled event with ``time <= now`` in order.

        "Due" uses a relative tolerance: timestamps within a few ulps of
        ``now`` (accumulated-float noise) count as simultaneous at any
        magnitude of simulated time.

        ``out``, when given, is cleared and reused as the result list so a
        caller polling every simulation step never churns allocations.
        """
        if out is None:
            due: list[Event] = []
        else:
            due = out
            due.clear()
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[2]
            if ev.cancelled:
                heapq.heappop(heap)
                continue
            if not self._due(entry[0], now):
                break
            heapq.heappop(heap)
            ev._queue = None  # popped: a late cancel() must not touch _live
            self._live -= 1
            due.append(ev)
        return due

    def __len__(self) -> int:
        return self._live

    def is_empty(self) -> bool:
        return self._live == 0


class Simulator:
    """Clock + event queue: shared spine of one simulated run."""

    def __init__(self) -> None:
        self.clock = Clock()
        self.events = EventQueue()
        # reused pop_due buffer; swapped out while firing so a reentrant
        # run_due_events (an action that advances the clock) falls back to
        # a fresh list instead of clobbering the in-flight batch
        self._due_buf: list[Event] | None = []

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule_in(self, dt: float, action: Callable[[], None], tag: str = "") -> Event:
        """Schedule ``action`` ``dt`` seconds from now."""
        return self.events.schedule(self.now + dt, action, tag)

    def run_due_events(self) -> int:
        """Fire all events due at the current time; returns how many ran."""
        events = self.events
        if events._live == 0:
            return 0
        buf = self._due_buf
        self._due_buf = None
        try:
            due = events.pop_due(self.now, out=buf)
            for ev in due:
                ev.action()
            return len(due)
        finally:
            self._due_buf = buf
