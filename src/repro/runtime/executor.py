"""The taskloop executor: runs one plan on the simulated machine.

This is the heart of the simulation.  The executor owns the
dispatch-advance loop:

1. every idle participating core tries to acquire work (own queue, then
   the plan's steal policy);
2. per-core slowdowns are recomputed from the interference model;
3. the machine advances by the smallest of (earliest task completion,
   next timed event);
4. completions commit their memory side effects (first-touch, last-touch)
   and free their cores; due events (noise transitions) fire; repeat.

When the last chunk retires, the barrier cost for the active thread count
is charged and the measured taskloop time — what ILAN's PTT stores — is
the wall time from encounter to barrier exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.memory.access import chunk_access
from repro.runtime.context import RunContext
from repro.runtime.overhead import OverheadLedger
from repro.runtime.results import TaskloopResult
from repro.runtime.schedulers.base import TaskloopPlan
from repro.runtime.task import Chunk, TaskloopWork
from repro.runtime.threads import Worker, WorkerPool
from repro.sim.progress import EPS
from repro.sim.trace import StealRecord, TaskloopRecord, TaskRecord

__all__ = ["TaskloopExecutor"]


@dataclass
class _Running:
    """Executor-side payload attached to a running chunk."""

    chunk: Chunk
    access: "object"
    worker: Worker
    start: float
    source: str
    victim_core: int


class TaskloopExecutor:
    """Executes taskloop plans against a :class:`RunContext`."""

    def __init__(self, ctx: RunContext):
        self.ctx = ctx

    # ------------------------------------------------------------------
    def run(self, work: TaskloopWork, plan: TaskloopPlan) -> TaskloopResult:
        """Run ``plan`` to completion; returns the measured result."""
        ctx = self.ctx
        plan.validate(work)
        if ctx.states.any_active():
            raise SimulationError("taskloops execute one at a time; machine is busy")

        ledger = OverheadLedger()
        t_start = ctx.sim.now
        busy_before = ctx.states.busy_time.copy()
        work_before = ctx.states.work_done.copy()
        ctx.counters.begin(work.uid)

        # serial prologue on the encountering thread: scheduler decision
        # cost plus task creation (work sharing pays a fork instead)
        total_chunks = plan.total_chunks
        if plan.extra_overhead > 0:
            ledger.charge("select", plan.extra_overhead)
        if plan.static:
            ledger.charge("fork", ctx.params.worksharing_fork)
            prologue = plan.extra_overhead + ctx.params.worksharing_fork
        else:
            create = ctx.params.task_create * total_chunks
            ledger.charge("task_create", create, count=total_chunks)
            prologue = plan.extra_overhead + create
        ctx.advance_serial(prologue)

        pool = WorkerPool(ctx.topology, plan.worker_cores, owner_lifo=plan.owner_lifo)
        for core, chunks in plan.initial_queues.items():
            pool.worker_for_core(core).queue.extend(chunks)

        rng = ctx.rng("runtime", "steal")
        executed, steals_local, steals_remote = self._loop(
            work, plan, pool, rng, ledger
        )

        # taskloop barrier: all active threads synchronise
        barrier = ctx.params.barrier_cost(plan.num_threads)
        ledger.charge("barrier", barrier)
        ctx.advance_serial(barrier)

        elapsed = ctx.sim.now - t_start
        counters = ctx.counters.finish(elapsed)
        node_perf, node_busy = self._node_performance(busy_before, work_before)
        result = TaskloopResult(
            uid=work.uid,
            name=work.name,
            elapsed=elapsed,
            num_threads=plan.num_threads,
            node_mask_bits=plan.node_mask_bits,
            steal_policy=plan.steal_mode,
            overhead=ledger,
            node_perf=node_perf,
            node_busy=node_busy,
            tasks_executed=executed,
            steals_local=steals_local,
            steals_remote=steals_remote,
            counters=counters,
        )
        ctx.trace.add_taskloop(
            TaskloopRecord(
                taskloop=work.uid,
                iteration=-1,
                num_threads=plan.num_threads,
                node_mask_bits=plan.node_mask_bits,
                steal_policy=plan.steal_mode,
                start=t_start,
                end=ctx.sim.now,
                overhead=ledger.total,
            )
        )
        return result

    # ------------------------------------------------------------------
    def _loop(
        self,
        work: TaskloopWork,
        plan: TaskloopPlan,
        pool: WorkerPool,
        rng: np.random.Generator,
        ledger: OverheadLedger,
    ) -> tuple[int, int, int]:
        """The change-driven dispatch-advance loop (the incremental engine).

        Bit-identical by construction to the from-scratch reference loop
        (:class:`repro.runtime.reference.ReferenceExecutor`, the
        differential oracle), with three hot-path substitutions:

        * slowdowns come from the :class:`~repro.sim.incremental.
          IncrementalInterference` cache (only dirty rows recomputed,
          with the reference's own expressions);
        * dispatch walks a maintained idle-core list in ascending core
          order — the same ``acquire`` call sequence the reference's
          full-pool scan makes, without touching active workers;
        * completion times and the advance run maskless over all cores
          into preallocated buffers, with idle cores parked at
          ``rem = inf`` so every idle lane is an exact bitwise no-op of
          the reference's masked computation.
        """
        ctx = self.ctx
        states = ctx.states
        inc = ctx.incremental
        sim = ctx.sim
        events = sim.events
        clock = sim.clock
        counters = ctx.counters
        sample_counters = counters.enabled
        total_chunks = plan.total_chunks
        num_threads = plan.num_threads
        executed = 0
        steals_local = 0
        steals_remote = 0

        # every participating core is idle at entry (run() checked), so the
        # idle list starts as the pool's ascending core order
        idle = [w.core_id for w in pool]
        num_workers = len(idle)
        sl, sr, idle = self._dispatch(work, plan, pool, rng, ledger, idle)
        steals_local += sl
        steals_remote += sr
        active_count = num_workers - len(idle)

        num_cores = states.num_cores
        rem = states.rem
        ov = states.ov
        active = states.active
        busy_time = states.busy_time
        work_done = states.work_done
        # preallocated step buffers (per taskloop, not per step)
        times = np.empty(num_cores)
        ov_wall = np.empty(num_cores)
        burn = np.empty(num_cores)
        tmp = np.empty(num_cores)
        body_wall = np.empty(num_cores)
        prog = np.empty(num_cores)
        before = np.empty(num_cores)
        delta = np.empty(num_cores)
        done = np.empty(num_cores, dtype=bool)
        ov_small = np.empty(num_cores, dtype=bool)
        inactive = np.empty(num_cores, dtype=bool)

        # park idle cores at rem = inf: (ov + inf*s)/speed = inf reproduces
        # the reference's inf fill without building a mask every step
        rem[~active] = np.inf
        try:
            while executed < total_chunks:
                if active_count == 0 and not (
                    # same wait condition as the reference loop: offline
                    # cores plus pending events mean the machine can recover
                    states.any_offline and not events.is_empty()
                ):
                    counters.abort()
                    raise SimulationError(
                        f"deadlock: {total_chunks - executed} chunks of "
                        f"{work.uid!r} remain but no core can acquire work"
                    )
                slowdown = inc.slowdowns()
                if sample_counters:
                    mean_sat, max_sat = inc.saturation_scalars()
                # noise/asymmetry rebind these arrays; re-read every step
                speed = states.speed
                speed_div = states.speed_div
                any_offline = states.any_offline
                offline = states.offline
                # completion times: (ov + rem * s) / speed, maskless;
                # offline lanes (speed_div = 1) are pinned to inf like the
                # reference's completion_times
                np.multiply(rem, slowdown, out=times)
                np.add(ov, times, out=times)
                np.divide(times, speed_div, out=times)
                if any_offline:
                    np.copyto(times, np.inf, where=offline)
                dt_complete = float(times.min())
                dt_event = events.next_time() - clock.now
                dt = min(dt_complete, max(dt_event, 0.0))
                if not math.isfinite(dt):
                    counters.abort()
                    raise SimulationError("no finite next step; simulation is stuck")
                if sample_counters:
                    counters.step_scalars(
                        dt, mean_sat, max_sat, active_count, num_threads
                    )
                if dt != 0.0:
                    # fused CoreStates.advance: expression-identical on
                    # active lanes, exact no-op on idle lanes (ov = 0,
                    # rem = inf, slowdown = 1) and on offline lanes (burn
                    # covers the step at speed 0: nothing progresses)
                    np.divide(ov, speed_div, out=ov_wall)
                    if any_offline:
                        np.copyto(ov_wall, np.inf, where=offline)
                    np.minimum(ov_wall, dt, out=burn)
                    np.multiply(burn, speed, out=tmp)
                    np.subtract(ov, tmp, out=ov)
                    np.subtract(dt, burn, out=body_wall)
                    np.multiply(body_wall, speed, out=prog)
                    np.divide(prog, slowdown, out=prog)
                    before[:] = rem
                    np.subtract(before, prog, out=tmp)
                    np.maximum(tmp, 0.0, out=rem)
                    np.multiply(active, dt, out=tmp)
                    busy_time += tmp
                    np.logical_not(active, out=inactive)
                    # masked: idle lanes would be inf - inf; zeroed instead
                    np.subtract(before, rem, out=delta, where=active)
                    np.copyto(delta, 0.0, where=inactive)
                    work_done += delta
                    np.less_equal(rem, EPS, out=done)
                    np.less_equal(ov, EPS, out=ov_small)
                    done &= ov_small
                    completed = (
                        [int(c) for c in np.nonzero(done)[0]] if done.any() else []
                    )
                else:
                    completed = []
                online_epoch = states.online_epoch
                clock.advance(dt)
                sim.run_due_events()
                for core in completed:
                    running: _Running = states.finish(core)
                    rem[core] = np.inf  # finish reset it to 0.0; re-park
                    running.access.commit()
                    executed += 1
                    self._trace_task(running, core)
                if completed or states.online_epoch != online_epoch:
                    if completed:
                        idle.extend(completed)
                        idle.sort()
                    sl, sr, idle = self._dispatch(
                        work, plan, pool, rng, ledger, idle
                    )
                    steals_local += sl
                    steals_remote += sr
                    active_count = num_workers - len(idle)
        finally:
            # leave idle cores exactly as the reference does (rem = 0.0)
            rem[~states.active] = 0.0
        return executed, steals_local, steals_remote

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        work: TaskloopWork,
        plan: TaskloopPlan,
        pool: WorkerPool,
        rng: np.random.Generator,
        ledger: OverheadLedger,
        idle: list[int],
    ) -> tuple[int, int, list[int]]:
        """Give every idle participating core a task if one is available.

        Loops until a full pass makes no progress, because one worker's
        acquisition can expose work to another (e.g. a remote steal only
        becomes legal once the thief's node is fully drained).

        The reference scans every pool worker per pass and skips the
        active ones; since an ``acquire`` can only activate the acquiring
        worker (cores never turn idle mid-dispatch), iterating the sorted
        idle list makes the *identical* sequence of ``acquire`` calls —
        same workers, same order, same RNG draws, same ledger charges —
        without touching the active majority.  Returns the updated list.
        """
        ctx = self.ctx
        steals_local = 0
        steals_remote = 0
        policy = plan.policy
        params = ctx.params
        by_core = pool.by_core
        online = ctx.states.online
        progress = True
        while progress and idle and pool.any_work():
            progress = False
            still_idle: list[int] = []
            for core in idle:
                if not online[core]:
                    # offline cores stay idle (and in the list) but make no
                    # acquire call — mirroring the reference's skip
                    still_idle.append(core)
                    continue
                worker = by_core[core]
                acq = policy.acquire(worker, pool, rng, params, ledger)
                if acq is None:
                    still_idle.append(core)
                    continue
                progress = True
                if acq.source == "steal_local":
                    steals_local += 1
                elif acq.source == "steal_remote":
                    steals_remote += 1
                self._start_chunk(
                    work, acq.chunk, worker, acq.overhead, acq.source, acq.victim_core
                )
            idle = still_idle
        return steals_local, steals_remote, idle

    def _start_chunk(
        self,
        work: TaskloopWork,
        chunk: Chunk,
        worker: Worker,
        overhead: float,
        source: str,
        victim_core: int,
    ) -> None:
        """Resolve the chunk's memory view for this core and start it."""
        ctx = self.ctx
        node = worker.node_id
        access = chunk_access(work.region, work.pattern, chunk.lo_frac, chunk.hi_frac, node)
        reuse_eff = ctx.cache.effective_reuse(
            node, work.reuse, access.reuse_fraction, work.effective_working_set
        )
        mem0 = chunk.body_time * work.mem_frac
        mem_eff = mem0 * (1.0 - reuse_eff)
        body = chunk.body_time * (1.0 - work.mem_frac) + mem_eff
        mem_frac_eff = mem_eff / body if body > 0 else 0.0
        if ctx.counters.enabled:
            # modelled DRAM traffic: solo streaming rate times memory time
            bytes_total = mem_eff * ctx.bandwidth.core_bandwidth
            remote_w = 1.0 - float(access.node_weights[node])
            ctx.counters.add_chunk_traffic(bytes_total, bytes_total * remote_w)
        ctx.states.start(
            worker.core_id,
            body=body,
            overhead=overhead,
            mem_frac=mem_frac_eff,
            gamma=work.gamma,
            weights=access.node_weights,
            payload=_Running(
                chunk=chunk,
                access=access,
                worker=worker,
                start=ctx.sim.now,
                source=source,
                victim_core=victim_core,
            ),
        )
        if source == "steal_remote" and ctx.trace.enabled:
            ctx.trace.add_steal(
                StealRecord(
                    taskloop=work.uid,
                    chunk_index=chunk.index,
                    thief_core=worker.core_id,
                    victim_core=victim_core,
                    remote=True,
                    time=ctx.sim.now,
                )
            )

    def _trace_task(self, running: _Running, core: int) -> None:
        ctx = self.ctx
        if not ctx.trace.enabled:
            return
        ctx.trace.add_task(
            TaskRecord(
                taskloop=running.chunk.work.uid,
                chunk_index=running.chunk.index,
                core=core,
                node=running.worker.node_id,
                start=running.start,
                end=ctx.sim.now,
                base_time=running.chunk.body_time,
                stolen=running.chunk.stolen,
            )
        )

    def _node_performance(
        self, busy_before: np.ndarray, work_before: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node throughput (base work / busy second) for this execution."""
        ctx = self.ctx
        d_busy = ctx.states.busy_time - busy_before
        d_work = ctx.states.work_done - work_before
        nodes = ctx.interference.node_of_core
        busy = np.zeros(ctx.topology.num_nodes)
        done = np.zeros(ctx.topology.num_nodes)
        np.add.at(busy, nodes, d_busy)
        np.add.at(done, nodes, d_work)
        perf = np.full(ctx.topology.num_nodes, np.nan)
        used = busy > 0
        perf[used] = done[used] / busy[used]
        return perf, busy
