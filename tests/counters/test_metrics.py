"""Unit tests for the performance-counter board."""

import numpy as np
import pytest

from repro.counters.metrics import CounterBoard, TaskloopCounters
from repro.errors import SimulationError


class TestCounterBoard:
    def test_disabled_board_is_inert(self):
        b = CounterBoard(enabled=False)
        b.begin("a")
        b.step(1.0, np.array([2.0]), 4, 8)
        b.add_chunk_traffic(100.0, 50.0)
        assert b.finish(1.0) is None
        assert b.last("a") is None

    def test_sampling_lifecycle(self):
        b = CounterBoard()
        b.begin("app.loop")
        b.step(0.5, np.array([1.0, 3.0]), active_cores=4, participating=8)
        b.step(0.5, np.array([0.5, 0.5]), active_cores=8, participating=8)
        b.add_chunk_traffic(1000.0, 400.0)
        sample = b.finish(elapsed=1.0)
        assert sample.uid == "app.loop"
        assert sample.avg_saturation == pytest.approx((2.0 * 0.5 + 0.5 * 0.5) / 1.0)
        assert sample.peak_saturation == 3.0
        assert (sample.bytes_total, sample.bytes_remote) == (1000.0, 400.0)
        assert sample.busy_time == pytest.approx(4 * 0.5 + 8 * 0.5)
        assert sample.idle_time == pytest.approx(4 * 0.5)

    def test_history_per_uid(self):
        b = CounterBoard()
        for _ in range(2):
            b.begin("a")
            b.finish(1.0)
        b.begin("b")
        b.finish(2.0)
        assert len(b.history("a")) == 2
        assert b.last("b").elapsed == 2.0
        assert b.uids() == ["a", "b"]

    def test_nested_begin_rejected(self):
        b = CounterBoard()
        b.begin("a")
        with pytest.raises(SimulationError):
            b.begin("b")

    def test_finish_without_begin_rejected(self):
        with pytest.raises(SimulationError):
            CounterBoard().finish(1.0)

    def test_abort_clears(self):
        b = CounterBoard()
        b.begin("a")
        b.abort()
        b.begin("b")  # does not raise
        b.finish(1.0)

    def test_zero_dt_steps_ignored(self):
        b = CounterBoard()
        b.begin("a")
        b.step(0.0, np.array([9.0]), 1, 1)
        s = b.finish(1.0)
        assert s.peak_saturation == 0.0


class TestTaskloopCounters:
    def test_safe_ratios_on_empty(self):
        c = TaskloopCounters(uid="x")
        assert c.avg_saturation == 0.0
