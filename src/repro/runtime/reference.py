"""The reference engine: the differential oracle for the production loop.

Production simulation has one engine, :class:`~repro.runtime.executor.
TaskloopExecutor`'s change-driven loop.  This module keeps the
from-scratch loop it was derived from — every step recomputes all
slowdowns (``InterferenceModel.slowdowns``), predicts and advances through
``CoreStates.completion_times``/``advance``, and dispatch scans every
worker of the pool — as the oracle the production loop must reproduce
bit for bit.  :class:`ReferenceRuntime` is the entry point; only the
tests use it (the equivalence suites and the asymmetry-adaptation test).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError
from repro.runtime.executor import TaskloopExecutor
from repro.runtime.overhead import OverheadLedger
from repro.runtime.runtime import OpenMPRuntime
from repro.runtime.schedulers.base import TaskloopPlan
from repro.runtime.task import TaskloopWork
from repro.runtime.threads import WorkerPool

__all__ = ["ReferenceExecutor", "ReferenceRuntime"]


class ReferenceExecutor(TaskloopExecutor):
    """:class:`TaskloopExecutor` on the from-scratch reference loop."""

    def _loop(
        self,
        work: TaskloopWork,
        plan: TaskloopPlan,
        pool: WorkerPool,
        rng: np.random.Generator,
        ledger: OverheadLedger,
    ) -> tuple[int, int, int]:
        """The from-scratch dispatch-advance loop.

        Every step recomputes all slowdowns and scans every worker during
        dispatch.  The production loop (:meth:`TaskloopExecutor._loop`)
        must reproduce this loop's output bit for bit.
        """
        ctx = self.ctx
        executed = 0
        steals_local = 0
        steals_remote = 0
        total_chunks = plan.total_chunks

        dispatched = self._dispatch_idle(work, plan, pool, rng, ledger)
        steals_local += dispatched[0]
        steals_remote += dispatched[1]

        states = ctx.states
        model = ctx.interference
        sample_counters = ctx.counters.enabled
        while executed < total_chunks:
            if not states.any_active() and not (
                # offline cores with timed events pending: availability (or
                # stealability) can still change, so wait instead of dying
                states.any_offline and not ctx.sim.events.is_empty()
            ):
                ctx.counters.abort()
                raise SimulationError(
                    f"deadlock: {total_chunks - executed} chunks of {work.uid!r} "
                    "remain but no core can acquire work"
                )
            if sample_counters:
                slowdown, saturation = model.slowdowns_and_saturation(states)
            else:
                slowdown = model.slowdowns(states)
            times = states.completion_times(slowdown)
            dt_complete = float(np.min(times))
            dt_event = ctx.sim.events.next_time() - ctx.sim.now
            dt = min(dt_complete, max(dt_event, 0.0))
            if not math.isfinite(dt):
                ctx.counters.abort()
                raise SimulationError("no finite next step; simulation is stuck")
            if sample_counters:
                ctx.counters.step(
                    dt, saturation, int(states.active.sum()), plan.num_threads
                )
            online_epoch = states.online_epoch
            completed = states.advance(dt, slowdown)
            ctx.sim.clock.advance(dt)
            ctx.sim.run_due_events()
            for core in completed:
                running = states.finish(core)
                running.access.commit()
                executed += 1
                self._trace_task(running, core)
            if completed or states.online_epoch != online_epoch:
                # cores freed by completions — or made eligible (returned
                # online) / in need of replacement (went offline with queued
                # work now only reachable by others) — get a dispatch pass
                dispatched = self._dispatch_idle(work, plan, pool, rng, ledger)
                steals_local += dispatched[0]
                steals_remote += dispatched[1]
        # nothing above reads the incremental cache; drain the change log
        # into it once per taskloop so the log stays bounded
        ctx.incremental.refresh()
        return executed, steals_local, steals_remote

    def _dispatch_idle(
        self,
        work: TaskloopWork,
        plan: TaskloopPlan,
        pool: WorkerPool,
        rng: np.random.Generator,
        ledger: OverheadLedger,
    ) -> tuple[int, int]:
        """Give every idle participating core a task if one is available.

        Loops until a full pass makes no progress, because one worker's
        acquisition can expose work to another (e.g. a remote steal only
        becomes legal once the thief's node is fully drained).
        """
        ctx = self.ctx
        steals_local = 0
        steals_remote = 0
        active = ctx.states.active
        # stable within a dispatch pass: no simulated time elapses here, so
        # no online/offline event can fire mid-scan
        online = ctx.states.online
        progress = True
        while progress and pool.any_work():
            progress = False
            for worker in pool:
                if active[worker.core_id] or not online[worker.core_id]:
                    continue
                acq = plan.policy.acquire(worker, pool, rng, ctx.params, ledger)
                if acq is None:
                    continue
                progress = True
                if acq.source == "steal_local":
                    steals_local += 1
                elif acq.source == "steal_remote":
                    steals_remote += 1
                self._start_chunk(
                    work, acq.chunk, worker, acq.overhead, acq.source, acq.victim_core
                )
        return steals_local, steals_remote


class ReferenceRuntime(OpenMPRuntime):
    """:class:`OpenMPRuntime` whose taskloops run on the reference loop."""

    executor_type = ReferenceExecutor
