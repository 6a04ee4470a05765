"""Unit tests for the Performance Trace Table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ptt import ExecStats, PerformanceTraceTable, TaskloopPTT
from repro.core.selection import SelectionResult, select_next_threads
from repro.errors import ConfigurationError


class TestExecStats:
    def test_welford_mean_std(self):
        s = ExecStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            s.add(v)
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert s.min_time == 1.0

    def test_single_sample_no_variance(self):
        s = ExecStats()
        s.add(2.0)
        assert s.variance == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecStats().add(-1.0)


class TestTaskloopPTT:
    def test_record_and_mean(self):
        t = TaskloopPTT(num_nodes=4)
        key = (8, 0b11, "strict")
        t.record(key, 1.0)
        t.record(key, 3.0)
        assert t.mean_time(key) == pytest.approx(2.0)
        assert t.executions == 2

    def test_mean_time_missing(self):
        t = TaskloopPTT(num_nodes=4)
        assert t.mean_time((8, 1, "strict")) is None

    def test_best_time_per_thread_count_filters_policy(self):
        t = TaskloopPTT(num_nodes=4)
        t.record((8, 1, "strict"), 2.0)
        t.record((8, 1, "full"), 0.5)
        t.record((16, 3, "strict"), 1.0)
        per = t.best_time_per_thread_count(policy="strict")
        assert per == {8: 2.0, 16: 1.0}
        per_all = t.best_time_per_thread_count(policy=None)
        assert per_all[8] == 0.5

    def test_best_per_thread_count_takes_min_over_masks(self):
        t = TaskloopPTT(num_nodes=4)
        t.record((8, 0b0011, "strict"), 2.0)
        t.record((8, 0b1100, "strict"), 1.5)
        assert t.best_time_per_thread_count()[8] == 1.5

    def test_fastest_two(self):
        # Algorithm 1's GetFastest/GetSecondFastest over the PTT's per
        # thread-count bests: 16 (1.0 s) and 8 (2.0 s), whose midpoint at
        # granularity 4 is the next count to explore
        t = TaskloopPTT(num_nodes=4)
        t.record((32, 0xF, "strict"), 3.0)
        t.record((16, 0x3, "strict"), 1.0)
        t.record((8, 0x1, "strict"), 2.0)
        step = select_next_threads(t.best_time_per_thread_count(), 8, k=4, g=4)
        assert step == SelectionResult(threads=12, search_finished=False)
        step = select_next_threads(t.best_time_per_thread_count(), 8, k=4, g=8)
        assert step == SelectionResult(threads=16, search_finished=True)

    def test_fastest_two_needs_two_counts(self):
        t = TaskloopPTT(num_nodes=4)
        t.record((8, 1, "strict"), 1.0)
        with pytest.raises(ConfigurationError):
            select_next_threads(t.best_time_per_thread_count(), 8, k=3, g=8)

    def test_node_perf_ewma(self):
        t = TaskloopPTT(num_nodes=2, node_perf_alpha=0.5)
        t.record((2, 3, "strict"), 1.0, node_perf=np.array([1.0, np.nan]))
        assert t.node_perf[0] == 1.0
        assert np.isnan(t.node_perf[1])
        t.record((2, 3, "strict"), 1.0, node_perf=np.array([3.0, 2.0]))
        assert t.node_perf[0] == pytest.approx(2.0)
        assert t.node_perf[1] == pytest.approx(2.0)

    def test_fastest_node(self):
        t = TaskloopPTT(num_nodes=3)
        assert t.fastest_node() == 0  # no data: fall back
        t.record((3, 7, "strict"), 1.0, node_perf=np.array([1.0, 5.0, 2.0]))
        assert t.fastest_node() == 1

    def test_node_perf_shape_checked(self):
        t = TaskloopPTT(num_nodes=2)
        with pytest.raises(ConfigurationError):
            t.record((2, 3, "strict"), 1.0, node_perf=np.array([1.0]))

    def test_invalidate_drops_entries_keeps_node_perf(self):
        t = TaskloopPTT(num_nodes=2)
        t.record((2, 3, "strict"), 1.0, node_perf=np.array([1.0, 2.0]))
        assert t.generation == 0
        t.invalidate()
        assert t.entries == {}
        assert t.generation == 1
        # the EMA adapts on its own; it seeds the re-exploration's mask
        assert np.array_equal(t.node_perf, np.array([1.0, 2.0]))
        # entries recorded afterwards are fresh, not resurrected
        t.record((2, 3, "strict"), 5.0)
        assert t.mean_time((2, 3, "strict")) == 5.0
        assert t.entries[(2, 3, "strict")].count == 1


def _masked_update(cur: np.ndarray, obs: np.ndarray, a: float) -> np.ndarray:
    """The node-performance EMA as masked NumPy calls (the oracle)."""
    cur = cur.copy()
    seen = ~np.isnan(obs)
    fresh = seen & np.isnan(cur)
    blend = seen & ~np.isnan(cur)
    cur[fresh] = obs[fresh]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge sums
        cur[blend] = (1.0 - a) * cur[blend] + a * obs[blend]
    return cur


#: NaNs (either sign), signed zeros, subnormals, infinities and any double
_perf_values = st.one_of(
    st.sampled_from([
        float("nan"), -float("nan"), 0.0, -0.0, 5e-324, -5e-324,
        2.2250738585072009e-308, 1e-310, float("inf"), -float("inf"),
    ]),
    st.floats(width=64),
)


class TestNodePerfOracle:
    @settings(max_examples=200)
    @given(
        data=st.data(),
        num_nodes=st.integers(min_value=1, max_value=8),
        alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        steps=st.integers(min_value=1, max_value=4),
    )
    def test_record_matches_masked_update_bit_for_bit(self, data, num_nodes, alpha, steps):
        vectors = st.lists(_perf_values, min_size=num_nodes, max_size=num_nodes)
        start = np.array(data.draw(vectors, label="start"), dtype=np.float64)
        t = TaskloopPTT(num_nodes=num_nodes, node_perf=start.copy(), node_perf_alpha=alpha)
        expected = start
        for _ in range(steps):
            obs = np.array(data.draw(vectors, label="observation"), dtype=np.float64)
            expected = _masked_update(expected, obs, alpha)
            t.record((1, 1, "strict"), 1.0, node_perf=obs)
            assert t.node_perf.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("obs", [np.ones(3), np.ones((2, 1)), np.ones(1)])
    def test_wrong_shape_observation_raises_and_keeps_node_perf(self, obs):
        t = TaskloopPTT(num_nodes=2)
        t.record((2, 3, "strict"), 1.0, node_perf=np.array([1.0, np.nan]))
        before = t.node_perf.tobytes()
        with pytest.raises(ConfigurationError):
            t.record((2, 3, "strict"), 1.0, node_perf=obs)
        assert t.node_perf.tobytes() == before


class TestPerformanceTraceTable:
    def test_table_created_on_demand(self):
        ptt = PerformanceTraceTable(num_nodes=4)
        assert "a" not in ptt
        t = ptt.table("a")
        assert "a" in ptt
        assert ptt.table("a") is t
        assert len(ptt) == 1
        assert ptt.uids() == ["a"]

    def test_clear(self):
        ptt = PerformanceTraceTable(num_nodes=4)
        ptt.table("a")
        ptt.clear()
        assert len(ptt) == 0

    def test_bad_nodes(self):
        with pytest.raises(ConfigurationError):
            PerformanceTraceTable(0)
