"""Unit tests for result aggregation (synthetic results, no simulation)."""

import numpy as np
import pytest

from repro.runtime.overhead import COMPONENTS, OverheadLedger
from repro.runtime.results import AppRunResult, TaskloopResult


def loop_result(uid="app.loop", elapsed=1.0, threads=4, **charges):
    led = OverheadLedger()
    for component, amount in charges.items():
        led.charge(component, amount)
    return TaskloopResult(
        uid=uid, name=uid.split(".")[-1], elapsed=elapsed, num_threads=threads,
        node_mask_bits=0b11, steal_policy="strict", overhead=led,
        node_perf=np.array([1.0, np.nan]), node_busy=np.array([1.0, 0.0]),
        tasks_executed=8, steals_local=2, steals_remote=1,
    )


class TestAppRunResult:
    def test_weighted_avg_threads(self):
        res = AppRunResult(app_name="a", scheduler="s", seed=0, total_time=3.0)
        res.taskloops = [
            loop_result(elapsed=1.0, threads=64),
            loop_result(elapsed=3.0, threads=32),
        ]
        # (64*1 + 32*3) / 4 = 40
        assert res.weighted_avg_threads == pytest.approx(40.0)

    def test_weighted_avg_empty(self):
        res = AppRunResult(app_name="a", scheduler="s", seed=0, total_time=0.0)
        assert res.weighted_avg_threads == 0.0

    def test_total_overhead_sums(self):
        res = AppRunResult(app_name="a", scheduler="s", seed=0, total_time=1.0)
        res.taskloops = [
            loop_result(dequeue=1e-6, barrier=2e-6),
            loop_result(steal_local=3e-6),
        ]
        assert res.total_overhead == pytest.approx(6e-6)

    def test_loop_times_filters_uid(self):
        res = AppRunResult(app_name="a", scheduler="s", seed=0, total_time=1.0)
        res.taskloops = [
            loop_result(uid="a.x", elapsed=1.0),
            loop_result(uid="a.y", elapsed=2.0),
            loop_result(uid="a.x", elapsed=3.0),
        ]
        assert res.loop_times("a.x") == [1.0, 3.0]
        assert res.loop_times("a.z") == []

    def test_overhead_by_component_matches_total(self):
        res = AppRunResult(app_name="a", scheduler="s", seed=0, total_time=1.0)
        res.taskloops = [
            loop_result(dequeue=1e-6, fork=4e-6, select=2e-6),
            loop_result(ptt_update=5e-7),
        ]
        parts = {name: sum(getattr(r.overhead, name) for r in res.taskloops)
                 for name in COMPONENTS}
        assert sum(parts.values()) == pytest.approx(res.total_overhead)
        assert parts["fork"] == pytest.approx(4e-6)


class TestTaskloopResult:
    def test_overhead_total_property(self):
        r = loop_result(barrier=1e-6, steal_remote=2e-6)
        assert r.overhead_total == pytest.approx(3e-6)
