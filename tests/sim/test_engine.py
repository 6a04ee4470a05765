"""Unit tests for the clock and event queue."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Clock, EventQueue, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance(self):
        c = Clock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == 2.0

    def test_advance_to(self):
        c = Clock()
        c.advance_to(3.0)
        assert c.now == 3.0
        c.advance_to(3.0)  # idempotent
        assert c.now == 3.0

    def test_no_negative_advance(self):
        c = Clock()
        with pytest.raises(SimulationError):
            c.advance(-1.0)
        with pytest.raises(SimulationError):
            c.advance(math.nan)

    def test_no_time_travel(self):
        c = Clock(start=5.0)
        with pytest.raises(SimulationError):
            c.advance_to(1.0)

    def test_advance_to_tolerates_ulp_noise_at_large_now(self):
        # regression (DET003 audit): the backwards guard used an absolute
        # 1e-12 epsilon, so at now=1e6 a target a few ulps below now
        # (accumulated-float noise, ~1.2e-10 off) spuriously raised
        now = 1e6
        c = Clock(start=now)
        almost_now = math.nextafter(now, 0.0)
        assert almost_now < now  # genuinely below, beyond 1e-12 absolute
        assert now - almost_now > 1e-12
        assert c.advance_to(almost_now) == now  # clamps, no raise

    def test_advance_to_still_rejects_genuine_backwards_at_large_now(self):
        c = Clock(start=1e6)
        with pytest.raises(SimulationError):
            c.advance_to(1e6 - 0.5)

    def test_bad_start(self):
        with pytest.raises(SimulationError):
            Clock(start=-1.0)


class TestEventQueue:
    def test_ordering(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        for ev in q.pop_due(2.5):
            ev.action()
        assert fired == ["a", "b"]
        assert q.next_time() == 3.0

    def test_stable_for_ties(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(1.0, lambda: fired.append(2))
        for ev in q.pop_due(1.0):
            ev.action()
        assert fired == [1, 2]

    def test_cancel(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        ev.cancel()
        assert q.is_empty()
        assert q.next_time() == math.inf
        assert q.pop_due(5.0) == []

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        a = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        a.cancel()
        assert len(q) == 1

    def test_empty_next_time(self):
        assert EventQueue().next_time() == math.inf

    def test_rejects_bad_time(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            q.schedule(math.inf, lambda: None)


class TestSimulator:
    def test_schedule_in_and_run_due(self):
        sim = Simulator()
        fired = []
        sim.schedule_in(1.0, lambda: fired.append("x"))
        sim.clock.advance(1.0)
        assert sim.run_due_events() == 1
        assert fired == ["x"]

    def test_events_not_due_stay(self):
        sim = Simulator()
        sim.schedule_in(2.0, lambda: None)
        sim.clock.advance(1.0)
        assert sim.run_due_events() == 0
        assert len(sim.events) == 1


class TestDueTolerance:
    def test_same_time_event_fires_at_large_now(self):
        # regression: an absolute epsilon (now + 1e-15) is swallowed by
        # float spacing once `now` is large; the relative tolerance must
        # still treat an accumulated-equal timestamp as due
        q = EventQueue()
        now = 1e6
        t = 0.0
        for _ in range(10):  # accumulate to ~1e6 with rounding error
            t += now / 10
        q.schedule(t, lambda: None)
        assert len(q.pop_due(now)) == 1

    def test_tolerance_is_relative_not_absolute(self):
        from repro.sim.engine import DUE_REL_TOL

        q = EventQueue()
        now = 1e9
        q.schedule(now * (1.0 + DUE_REL_TOL / 2), lambda: None)  # within tol
        assert len(q.pop_due(now)) == 1
        q.schedule(now * (1.0 + DUE_REL_TOL * 10), lambda: None)  # beyond tol
        assert q.pop_due(now) == []
        assert len(q) == 1

    def test_tiny_times_still_compare_exactly(self):
        q = EventQueue()
        q.schedule(1e-16, lambda: None)  # abs_tol floor keeps ~0 times due
        assert len(q.pop_due(0.0)) == 1

    def test_future_events_still_held_back(self):
        q = EventQueue()
        q.schedule(2.0, lambda: None)
        assert q.pop_due(1.0) == []
        assert len(q.pop_due(2.0)) == 1


class TestLiveCounter:
    def test_len_tracks_schedule_and_pop(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i), lambda: None)
        assert len(q) == 5
        q.pop_due(2.0)  # pops 0, 1, 2
        assert len(q) == 2
        q.pop_due(10.0)
        assert len(q) == 0
        assert q.is_empty()

    def test_cancel_decrements_once(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1
        ev.cancel()  # double-cancel must not decrement again
        assert len(q) == 1

    def test_cancelled_events_are_skipped_by_pop(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1.0, lambda: fired.append("dead"))
        q.schedule(1.0, lambda: fired.append("live"))
        ev.cancel()
        popped = q.pop_due(1.0)
        assert len(popped) == 1
        for e in popped:
            e.action()
        assert fired == ["live"]
        assert len(q) == 0

    def test_cancel_after_pop_is_harmless(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        (ev,) = q.pop_due(1.0)
        ev.cancel()  # already popped: must not corrupt the live count
        assert len(q) == 0
        q.schedule(2.0, lambda: None)
        assert len(q) == 1

    def test_len_is_constant_time_bookkeeping(self):
        # heap may still physically hold cancelled entries; __len__ must
        # report only live ones without scanning
        q = EventQueue()
        events = [q.schedule(float(i), lambda: None) for i in range(100)]
        for ev in events[::2]:
            ev.cancel()
        assert len(q) == 50
        assert len(q._heap) == 100  # lazily-deleted entries remain
