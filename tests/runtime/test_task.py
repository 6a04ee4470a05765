"""Unit tests for the task model (TaskloopWork / Chunk / SerialPhase)."""

import numpy as np
import pytest

from repro.errors import RuntimeModelError
from repro.memory.access import AccessPattern
from repro.runtime.task import Chunk, SerialPhase, TaskloopWork
from tests.conftest import make_work


class TestTaskloopWork:
    def test_weights_normalised(self, tiny_ctx):
        w = make_work(tiny_ctx, weights=np.array([1.0, 3.0]))
        assert w.weights.sum() == pytest.approx(1.0)
        assert w.weights[1] == pytest.approx(0.75)

    def test_validation(self, tiny_ctx):
        with pytest.raises(RuntimeModelError):
            make_work(tiny_ctx, total_iters=0)
        with pytest.raises(RuntimeModelError):
            make_work(tiny_ctx, num_tasks=100, total_iters=10)
        with pytest.raises(RuntimeModelError):
            make_work(tiny_ctx, work_seconds=0.0)
        with pytest.raises(RuntimeModelError):
            make_work(tiny_ctx, mem_frac=1.2)
        with pytest.raises(RuntimeModelError):
            make_work(tiny_ctx, reuse=-0.1)
        with pytest.raises(RuntimeModelError):
            make_work(tiny_ctx, gamma=-1.0)
        with pytest.raises(RuntimeModelError):
            make_work(tiny_ctx, weights=np.array([0.0, 0.0]))

    def test_effective_working_set_default(self, tiny_ctx):
        w = make_work(tiny_ctx, num_tasks=8, region_bytes=64 * 1024 * 1024)
        assert w.effective_working_set == pytest.approx(w.region.num_bytes / 8)

    def test_effective_working_set_override(self, tiny_ctx):
        w = make_work(tiny_ctx)
        w.working_set_bytes = 123.0
        assert w.effective_working_set == 123.0


class TestChunk:
    def test_fields(self, tiny_ctx):
        w = make_work(tiny_ctx)
        c = Chunk(work=w, index=0, lo=0, hi=8, lo_frac=0.0, hi_frac=0.125, body_time=0.001)
        assert c.home_node == -1
        assert not c.strict and not c.stolen

    def test_validation(self, tiny_ctx):
        w = make_work(tiny_ctx)
        with pytest.raises(RuntimeModelError):
            Chunk(work=w, index=0, lo=5, hi=5, lo_frac=0.0, hi_frac=0.1, body_time=0.1)
        with pytest.raises(RuntimeModelError):
            Chunk(work=w, index=0, lo=0, hi=5, lo_frac=0.0, hi_frac=0.1, body_time=0.0)


class TestSerialPhase:
    def test_ok(self):
        assert SerialPhase(0.5).seconds == 0.5
        assert SerialPhase(0.0).seconds == 0.0

    def test_negative_rejected(self):
        with pytest.raises(RuntimeModelError):
            SerialPhase(-0.1)


def test_pattern_plumbs_through(tiny_ctx):
    w = make_work(tiny_ctx, pattern=AccessPattern.uniform())
    assert w.pattern.blocked_fraction == 0.0
