"""Unit/integration tests for the taskloop executor."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MemoryModelError, SimulationError
from repro.memory.access import AccessPattern
from repro.runtime.context import RunContext
from repro.runtime.executor import TaskloopExecutor, _Lanes
from repro.runtime.reference import ReferenceExecutor
from repro.runtime.schedulers import create_scheduler
from repro.runtime.schedulers.base import TaskloopPlan
from repro.runtime.taskloop import partition
from repro.runtime.worksteal import HierarchicalStealPolicy, NoStealPolicy, RandomStealPolicy
from repro.sim.progress import CoreStates
from repro.topology.presets import dual_socket_small
from tests.conftest import make_work
from tests.sim.test_engine_equivalence import (
    assert_contexts_identical,
    assert_taskloop_identical,
)


def simple_plan(ctx, work, *, cores=None, policy=None, spread=True, owner_lifo=True,
                steal_mode="random", static=False, extra_overhead=0.0):
    """All chunks on the first core unless spread, stealing per policy."""
    cores = cores if cores is not None else list(ctx.topology.core_ids())
    chunks = partition(work)
    queues = {c: [] for c in cores}
    if spread:
        for i, ch in enumerate(chunks):
            queues[cores[i % len(cores)]].append(ch)
    else:
        queues[cores[0]].extend(chunks)
    return TaskloopPlan(
        worker_cores=cores,
        initial_queues=queues,
        policy=policy or RandomStealPolicy(),
        owner_lifo=owner_lifo,
        num_threads=len(cores),
        node_mask_bits=(1 << ctx.topology.num_nodes) - 1,
        steal_mode=steal_mode,
        static=static,
        extra_overhead=extra_overhead,
    )


class TestBasicExecution:
    def test_all_chunks_execute(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8)
        plan = simple_plan(tiny_ctx, work)
        result = TaskloopExecutor(tiny_ctx).run(work, plan)
        assert result.tasks_executed == 8
        assert result.elapsed > 0
        assert tiny_ctx.sim.now == pytest.approx(result.elapsed)

    def test_clock_advances_monotonically(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8)
        TaskloopExecutor(tiny_ctx).run(work, simple_plan(tiny_ctx, work))
        t1 = tiny_ctx.sim.now
        work2 = make_work(tiny_ctx, uid="test.loop2", num_tasks=8)
        TaskloopExecutor(tiny_ctx).run(work2, simple_plan(tiny_ctx, work2))
        assert tiny_ctx.sim.now > t1

    def test_parallelism_speeds_up(self, tiny):
        """4 cores must beat 1 core on a balanced compute-bound loop."""
        times = {}
        for cores in ([0], [0, 1, 2, 3]):
            ctx = RunContext.create(tiny, seed=0)
            work = make_work(ctx, num_tasks=8, mem_frac=0.0, work_seconds=0.04)
            plan = simple_plan(ctx, work, cores=cores, spread=False,
                               policy=RandomStealPolicy())
            times[len(cores)] = TaskloopExecutor(ctx).run(work, plan).elapsed
        assert times[4] < times[1] / 2.5  # near-linear scaling minus overheads

    def test_elapsed_includes_barrier_and_creation(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8, mem_frac=0.0, work_seconds=1e-5)
        plan = simple_plan(tiny_ctx, work)
        result = TaskloopExecutor(tiny_ctx).run(work, plan)
        p = tiny_ctx.params
        floor = p.task_create * 8 + p.barrier_cost(4)
        assert result.elapsed > floor

    def test_deadlock_detected(self, tiny_ctx):
        """Strict chunks homed on a node with no workers can never run."""
        work = make_work(tiny_ctx, num_tasks=4)
        chunks = partition(work)
        for c in chunks:
            c.strict = True
            c.home_node = 1
        plan = TaskloopPlan(
            worker_cores=[0, 1],  # node 0 only
            initial_queues={0: chunks, 1: []},
            policy=NoStealPolicy(),
            owner_lifo=False,
            num_threads=2,
            node_mask_bits=0b01,
            steal_mode="strict",
        )
        # chunks sit on core 0's queue, so they do execute (owner runs them);
        # to force the deadlock put them on core 1's queue... they'd still
        # run. True deadlock needs an empty-queue worker set: queue them on
        # a core not in the pool -> plan validation catches that instead.
        with pytest.raises(ConfigurationError):
            TaskloopPlan(
                worker_cores=[0, 1],
                initial_queues={5: chunks},
                policy=NoStealPolicy(),
                owner_lifo=False,
                num_threads=2,
                node_mask_bits=0b01,
                steal_mode="strict",
            ).validate(work)

    def test_busy_machine_rejected(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8)
        tiny_ctx.states.start(
            0, body=1.0, overhead=0.0, mem_frac=0.0, gamma=0.0,
            weights=np.zeros(2), payload=None,
        )
        with pytest.raises(SimulationError):
            TaskloopExecutor(tiny_ctx).run(work, simple_plan(tiny_ctx, work))


class TestEncounterChecks:
    """The per-encounter values are range-checked once per run, with the
    exception type the per-task path raised for them; a value set out of
    range after construction bypasses TaskloopWork's own validation."""

    @pytest.mark.parametrize("executor", [TaskloopExecutor, ReferenceExecutor])
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("reuse", 1.5, MemoryModelError),
            ("reuse", -0.25, MemoryModelError),
            ("mem_frac", 1.5, SimulationError),
            ("mem_frac", -0.5, SimulationError),
            ("gamma", -1.0, SimulationError),
        ],
    )
    def test_out_of_range_work_rejected(self, tiny_ctx, executor, field, value, error):
        work = make_work(tiny_ctx, num_tasks=8)
        setattr(work, field, value)
        with pytest.raises(error):
            executor(tiny_ctx).run(work, simple_plan(tiny_ctx, work))

    @pytest.mark.parametrize("mem_frac, reuse", [(0.0, 0.0), (1.0, 1.0)])
    def test_range_ends_run(self, tiny_ctx, mem_frac, reuse):
        work = make_work(tiny_ctx, num_tasks=8, mem_frac=mem_frac, reuse=reuse)
        result = TaskloopExecutor(tiny_ctx).run(work, simple_plan(tiny_ctx, work))
        assert result.tasks_executed == 8


class TestPlanValidation:
    def test_duplicate_chunk_rejected(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=4)
        chunks = partition(work)
        plan = TaskloopPlan(
            worker_cores=[0], initial_queues={0: chunks + [chunks[0]]},
            policy=NoStealPolicy(), owner_lifo=True, num_threads=1,
            node_mask_bits=1, steal_mode="static",
        )
        with pytest.raises(ConfigurationError):
            plan.validate(work)

    def test_thread_count_mismatch_rejected(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=4)
        plan = TaskloopPlan(
            worker_cores=[0, 1], initial_queues={0: partition(work)},
            policy=NoStealPolicy(), owner_lifo=True, num_threads=3,
            node_mask_bits=1, steal_mode="static",
        )
        with pytest.raises(ConfigurationError):
            plan.validate(work)

    def test_empty_plans_rejected(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=4)
        with pytest.raises(ConfigurationError):
            TaskloopPlan(
                worker_cores=[], initial_queues={}, policy=NoStealPolicy(),
                owner_lifo=True, num_threads=0, node_mask_bits=1, steal_mode="x",
            ).validate(work)
        with pytest.raises(ConfigurationError):
            TaskloopPlan(
                worker_cores=[0], initial_queues={0: []}, policy=NoStealPolicy(),
                owner_lifo=True, num_threads=1, node_mask_bits=1, steal_mode="x",
            ).validate(work)


class TestMeasurement:
    def test_node_perf_reported_for_used_nodes(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8)
        result = TaskloopExecutor(tiny_ctx).run(work, simple_plan(tiny_ctx, work))
        assert result.node_perf.shape == (2,)
        assert np.all(~np.isnan(result.node_perf))
        assert np.all(result.node_perf[~np.isnan(result.node_perf)] > 0)

    def test_unused_node_perf_is_nan(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8)
        plan = simple_plan(tiny_ctx, work, cores=[0, 1], spread=False,
                           policy=HierarchicalStealPolicy(False), owner_lifo=False,
                           steal_mode="strict")
        result = TaskloopExecutor(tiny_ctx).run(work, plan)
        assert np.isnan(result.node_perf[1])
        assert result.node_perf[0] > 0

    def test_overhead_components_charged(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8)
        result = TaskloopExecutor(tiny_ctx).run(
            work, simple_plan(tiny_ctx, work, extra_overhead=1e-6)
        )
        led = result.overhead
        assert led.task_create > 0
        assert led.barrier > 0
        assert led.select == pytest.approx(1e-6)

    def test_static_plan_charges_fork_not_creation(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8)
        plan = simple_plan(tiny_ctx, work, policy=NoStealPolicy(), static=True,
                           steal_mode="static")
        result = TaskloopExecutor(tiny_ctx).run(work, plan)
        assert result.overhead.fork > 0
        assert result.overhead.task_create == 0

    def test_steal_counters(self, tiny_ctx):
        work = make_work(tiny_ctx, num_tasks=8, mem_frac=0.0)
        plan = simple_plan(tiny_ctx, work, spread=False)  # all on core 0
        result = TaskloopExecutor(tiny_ctx).run(work, plan)
        assert result.steals_local + result.steals_remote > 0

    def test_trace_records_when_enabled(self, tiny):
        ctx = RunContext.create(tiny, seed=0, trace=True)
        work = make_work(ctx, num_tasks=8)
        TaskloopExecutor(ctx).run(work, simple_plan(ctx, work))
        assert len(ctx.trace.tasks) == 8
        assert len(ctx.trace.taskloops) == 1


class TestDeterminism:
    def test_same_seed_same_elapsed(self, tiny):
        results = []
        for _ in range(2):
            ctx = RunContext.create(tiny, seed=5)
            work = make_work(ctx, num_tasks=16, total_iters=64)
            results.append(TaskloopExecutor(ctx).run(work, simple_plan(ctx, work)).elapsed)
        assert results[0] == results[1]


class _SpyStrictPolicy(HierarchicalStealPolicy):
    """The strict hierarchical policy, logging every ``acquire`` and every
    ``exhausted`` answer in call order."""

    def __init__(self):
        super().__init__(allow_inter_node=False)
        self.log = []

    def acquire(self, worker, pool, rng, params, ledger):
        self.log.append(("acquire", worker.core_id, None))
        return super().acquire(worker, pool, rng, params, ledger)

    def exhausted(self, worker, pool):
        answer = super().exhausted(worker, pool)
        self.log.append(("exhausted", worker.core_id, (answer, pool.any_work())))
        return answer


class TestDrainedCores:
    """A core whose strict node has drained is retired from dispatch: no
    acquire call of it follows, the run keeps its bits, and it still
    counts toward the deadlock check."""

    @staticmethod
    def _strict_ilan_encounter(executor_type):
        ctx = RunContext.create(dual_socket_small(), seed=3, trace=True)
        # later iterations weigh more, so node 0's share drains first
        work = make_work(ctx, num_tasks=32, total_iters=64, weights=np.linspace(1.0, 4.0, 64))
        scheduler = create_scheduler("ilan")
        scheduler.reset()
        spy = _SpyStrictPolicy()
        plan = dataclasses.replace(scheduler.plan(work, ctx), policy=spy)
        return ctx, executor_type(ctx).run(work, plan), spy.log

    def test_no_acquire_after_exhausted_and_same_bits(self):
        ctx, result, log = self._strict_ilan_encounter(TaskloopExecutor)
        ref_ctx, ref_result, ref_log = self._strict_ilan_encounter(ReferenceExecutor)
        assert_taskloop_identical(ref_result, result)
        assert_contexts_identical(ref_ctx, ctx)
        retired = set()
        for kind, core, detail in log:
            if kind == "acquire":
                assert core not in retired
            elif detail[0]:
                retired.add(core)
        # a node drained while others still held work, and the reference
        # kept asking its cores what production no longer asks
        assert any(kind == "exhausted" and detail == (True, True) for kind, _, detail in log)
        assert len(ref_log) > sum(kind == "acquire" for kind, _, _ in log)

    @pytest.mark.parametrize("executor", [TaskloopExecutor, ReferenceExecutor])
    def test_deadlock_with_retired_cores(self, tiny, executor):
        """Node 1's cores are offline for good with its chunks queued:
        once node 0 drains and its cores retire, no core can run."""
        ctx = RunContext.create(tiny, seed=7)
        work = make_work(ctx, num_tasks=4)
        chunks = partition(work)
        spy = _SpyStrictPolicy()
        plan = TaskloopPlan(
            worker_cores=[0, 1, 2, 3],
            initial_queues={0: chunks[:2], 1: [], 2: chunks[2:], 3: []},
            policy=spy,
            owner_lifo=False,
            num_threads=4,
            node_mask_bits=0b11,
            steal_mode="strict",
        )
        ctx.states.set_online(np.array([True, True, False, False]))
        with pytest.raises(SimulationError, match="deadlock"):
            executor(ctx).run(work, plan)
        if executor is TaskloopExecutor:
            exhausted = {core for kind, core, d in spy.log if kind == "exhausted" and d[0]}
            assert exhausted == {0, 1}


#: lane values of the fused step: parked idle lanes (ov = inf), overhead
#: burned to a signed zero or a rounding residue either side of it, and
#: ordinary remaining work
_OV = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-17, -1e-17, math.inf]),
    st.floats(min_value=0.0, max_value=10.0),
)
_REM = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324]), st.floats(min_value=0.0, max_value=10.0)
)


@settings(max_examples=300, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(_OV, _REM, st.floats(min_value=1.0, max_value=50.0)), min_size=1, max_size=16
    ),
    dt=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
)
def test_unit_speed_branch_matches_general_branch(lanes, dt):
    """At speed exactly 1.0 the step's unit branch (no speed operations)
    writes the general branch's bits: completion times, burned overhead,
    body progress and the remaining work that follows."""
    ov, rem, slowdown = (np.array(column, dtype=np.float64) for column in zip(*lanes))
    states = CoreStates(len(lanes), 1)
    assert states.unit_speed
    out = []
    for speeds in (None, states):
        step = _Lanes(len(lanes))
        lane_ov = ov.copy()
        times = step.completion_times(lane_ov, rem, slowdown, speeds).tobytes()
        step.burn(dt, lane_ov, slowdown, speeds)
        new_rem = np.maximum(rem - step.prog, 0.0)
        out.append((times, lane_ov.tobytes(), step.prog.tobytes(), new_rem.tobytes()))
    assert out[0] == out[1]
