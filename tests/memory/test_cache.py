"""Unit tests for the cache-reuse model."""

import pytest

from repro.errors import MemoryModelError
from repro.memory.cache import CacheModel
from repro.runtime import executor
from repro.runtime.executor import _Encounter
from repro.runtime.overhead import OverheadLedger
from repro.runtime.schedulers.base import TaskloopPlan
from repro.runtime.taskloop import partition
from repro.runtime.threads import WorkerPool
from repro.runtime.worksteal import NoStealPolicy
from repro.topology.machine import MIB
from tests.conftest import make_work


@pytest.fixture
def cache(zen4):
    return CacheModel.from_topology(zen4)


class TestFromTopology:
    def test_zen4_node_l3(self, cache):
        # 2 CCDs x 32 MB per node
        assert cache.num_nodes == 8
        assert all(b == 64 * MIB for b in cache.node_l3_bytes)

    def test_tiny(self, tiny):
        c = CacheModel.from_topology(tiny)
        assert c.num_nodes == 2


class TestCapacity:
    def test_fits_entirely(self, cache):
        assert cache.capacity_factor(0, 16 * MIB) == 1.0

    def test_partial_fit(self, cache):
        assert cache.capacity_factor(0, 128 * MIB) == pytest.approx(0.5)

    def test_zero_working_set(self, cache):
        assert cache.capacity_factor(0, 0) == 1.0

    def test_validation(self, cache):
        with pytest.raises(MemoryModelError):
            cache.capacity_factor(9, 1.0)
        with pytest.raises(MemoryModelError):
            cache.capacity_factor(0, -1.0)


class TestEffectiveReuse:
    """The achieved reuse where the simulator applies it:
    ``_Encounter.start`` keeps ``1 - r * last_touch * capacity_factor``
    of a chunk's memory time (here the whole body: ``mem_frac`` 1)."""

    @staticmethod
    def start_chunk(ctx, monkeypatch, work, *, last_touch=1.0):
        """Start ``work``'s first chunk on core 0 (node 0) with its
        measured last-touch fraction pinned; return the body time kept,
        as a fraction of the chunk's base time."""
        plan = TaskloopPlan(
            worker_cores=[0], initial_queues={0: partition(work)},
            policy=NoStealPolicy(), owner_lifo=True, num_threads=1,
            node_mask_bits=1, steal_mode="static",
        )
        pool = WorkerPool(ctx.topology, [0])
        enc = _Encounter(ctx, work, plan, pool, ctx.rng("test"), OverheadLedger())
        resolve = executor.chunk_access

        def pinned(*args):
            access = resolve(*args)
            access.reuse_fraction = last_touch
            return access

        monkeypatch.setattr(executor, "chunk_access", pinned)
        chunk = plan.initial_queues[0][0]
        enc.start(pool.worker_for_core(0), chunk, 0.0, "local", -1)
        return ctx.states.rem[0] / chunk.body_time

    def test_full_locality_full_reuse(self, tiny_ctx, monkeypatch):
        work = make_work(tiny_ctx, mem_frac=1.0, reuse=0.5)
        kept = self.start_chunk(tiny_ctx, monkeypatch, work)
        assert kept == pytest.approx(1 - 0.5)

    def test_scales_with_locality(self, tiny_ctx, monkeypatch):
        work = make_work(tiny_ctx, mem_frac=1.0, reuse=0.5)
        kept = self.start_chunk(tiny_ctx, monkeypatch, work, last_touch=0.4)
        assert kept == pytest.approx(1 - 0.2)

    def test_capacity_discount(self, tiny_ctx, monkeypatch):
        # a 64 MiB working set against a node's 32 MiB of L3
        work = make_work(tiny_ctx, mem_frac=1.0, reuse=0.8)
        work.working_set_bytes = 64 * MIB
        kept = self.start_chunk(tiny_ctx, monkeypatch, work)
        assert kept == pytest.approx(1 - 0.4)

    def test_bounds_validation(self, tiny_ctx, monkeypatch):
        work = make_work(tiny_ctx, mem_frac=1.0, reuse=0.5)
        work.reuse = 1.5  # past TaskloopWork's own check
        with pytest.raises(MemoryModelError, match="reuse potential"):
            self.start_chunk(tiny_ctx, monkeypatch, work)
        work.reuse = 0.5
        with pytest.raises(MemoryModelError, match="last-touch fraction"):
            self.start_chunk(tiny_ctx, monkeypatch, work, last_touch=1.5)

    def test_effective_bytes(self, tiny_ctx, monkeypatch):
        # the counters' DRAM traffic is the memory time left after reuse
        # at the solo streaming rate
        work = make_work(tiny_ctx, mem_frac=1.0, reuse=0.5)
        tiny_ctx.counters.begin(work.uid)
        kept = self.start_chunk(tiny_ctx, monkeypatch, work)
        body = partition(work)[0].body_time
        sample = tiny_ctx.counters.finish(1.0)
        assert kept == pytest.approx(0.5)
        assert sample.bytes_total == pytest.approx(
            body * 0.5 * tiny_ctx.bandwidth.core_bandwidth
        )

    def test_effective_bytes_defaults_working_set(self, tiny_ctx, monkeypatch):
        # with no declared working set, the discount reads region bytes per
        # task: 256 MiB over 4 tasks is 64 MiB against 32 MiB of L3
        work = make_work(tiny_ctx, mem_frac=1.0, reuse=0.8,
                         region_bytes=256 * MIB, num_tasks=4)
        kept = self.start_chunk(tiny_ctx, monkeypatch, work)
        assert kept == pytest.approx(1 - 0.4)
