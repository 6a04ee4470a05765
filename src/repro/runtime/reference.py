"""The reference engine: the differential oracle for the production loop.

Production simulation has one engine, :class:`~repro.runtime.executor.
TaskloopExecutor`'s change-driven loop.  This module keeps the
from-scratch loop it was derived from — every step recomputes all
slowdowns (``InterferenceModel.slowdowns``), predicts and advances through
``CoreStates.completion_times``/``advance``, and dispatch scans every
worker of the pool — as the oracle the production loop must reproduce
bit for bit.  Chunk starts and completions are not part of that
contrast: both loops call the same per-task path
(:class:`repro.runtime.executor._Encounter`).  :class:`ReferenceRuntime`
is the entry point; only the tests use it (the equivalence suites and the
asymmetry-adaptation test).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError
from repro.runtime.executor import TaskloopExecutor, _Encounter
from repro.runtime.runtime import OpenMPRuntime

__all__ = ["ReferenceExecutor", "ReferenceRuntime"]


class ReferenceExecutor(TaskloopExecutor):
    """:class:`TaskloopExecutor` on the from-scratch reference loop."""

    def _loop(self, enc: _Encounter) -> tuple[int, int, int]:
        """The from-scratch dispatch-advance loop.

        Every step recomputes all slowdowns and scans every worker during
        dispatch.  The production loop (:meth:`TaskloopExecutor._loop`)
        must reproduce this loop's output bit for bit.
        """
        ctx = self.ctx
        executed = 0
        steals_local = 0
        steals_remote = 0
        total_chunks = enc.plan.total_chunks

        dispatched = self._dispatch_idle(enc)
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
                    f"deadlock: {total_chunks - executed} chunks of {enc.work.uid!r} "
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
                    dt, saturation, int(states.active.sum()), enc.plan.num_threads
                )
            online_epoch = states.online_epoch
            completed = states.advance(dt, slowdown)
            ctx.sim.clock.advance(dt)
            ctx.sim.run_due_events()
            for core in completed:
                enc.finish(core)
                executed += 1
            if completed or states.online_epoch != online_epoch:
                # cores freed by completions — or made eligible (returned
                # online) / in need of replacement (went offline with queued
                # work now only reachable by others) — get a dispatch pass
                dispatched = self._dispatch_idle(enc)
                steals_local += dispatched[0]
                steals_remote += dispatched[1]
        # nothing above reads the incremental cache; drain the change log
        # into it once per taskloop so the log stays bounded
        ctx.incremental.refresh()
        return executed, steals_local, steals_remote

    def _dispatch_idle(self, enc: _Encounter) -> tuple[int, int]:
        """Give every idle participating core a task if one is available.

        Loops until a full pass makes no progress, because one worker's
        acquisition can expose work to another (e.g. a remote steal only
        becomes legal once the thief's node is fully drained).
        """
        ctx = self.ctx
        pool = enc.pool
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
                acq = enc.plan.policy.acquire(worker, pool, enc.rng, ctx.params, enc.ledger)
                if acq is None:
                    continue
                progress = True
                if acq.source == "steal_local":
                    steals_local += 1
                elif acq.source == "steal_remote":
                    steals_remote += 1
                enc.start(worker, acq.chunk, acq.overhead, acq.source, acq.victim_core)
        return steals_local, steals_remote


class ReferenceRuntime(OpenMPRuntime):
    """:class:`OpenMPRuntime` whose taskloops run on the reference loop."""

    executor_type = ReferenceExecutor
