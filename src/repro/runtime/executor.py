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

Everything an encounter fixes is resolved once, in :class:`_Encounter`;
a chunk start or completion pays only for what varies per task.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MemoryModelError, SimulationError
from repro.memory.access import chunk_access
from repro.runtime.context import RunContext
from repro.runtime.overhead import OverheadLedger
from repro.runtime.results import TaskloopResult
from repro.runtime.schedulers.base import TaskloopPlan
from repro.runtime.task import Chunk, TaskloopWork
from repro.runtime.threads import Worker, WorkerPool
from repro.sim.progress import EPS, CoreStates
from repro.sim.trace import StealRecord, TaskloopRecord, TaskRecord

__all__ = ["TaskloopExecutor"]


class _Encounter:
    """One taskloop encounter: its resolved constants and per-task path.

    :meth:`TaskloopExecutor.run` builds one per encounter.  The
    constructor reads everything the encounter fixes — the work's reuse
    potential, memory fraction and contention exponent, each node's
    cache-capacity factor for the working set, the counter and trace
    switches — and runs their range checks once: a reuse potential outside
    ``[0, 1]`` raises :class:`MemoryModelError`, and the values
    ``CoreStates.start`` checks raise its :class:`SimulationError`.  Every
    pool core is checked against the machine here too, which covers the
    core-range checks of every start and finish: only pool cores start,
    and only started cores finish.

    :meth:`start` and :meth:`finish` then write their core's
    :class:`~repro.sim.progress.CoreStates` rows in place, exactly as
    ``CoreStates.start``/``finish`` would, and keep the
    checks on per-task values inline: the chunk's last-touch fraction, an
    idle core, a positive cost and an effective memory fraction in
    ``[0, 1]`` on start, a busy core on finish.  A running chunk carries
    ``(access, chunk, node, start time)`` as its payload.  Both engines
    (this module's loop and the reference oracle's) call these two
    methods, so they share one per-task path.
    """

    __slots__ = (
        "work",
        "plan",
        "pool",
        "rng",
        "ledger",
        "states",
        "region",
        "pattern",
        "reuse",
        "mem_frac",
        "compute_frac",
        "gamma",
        "capacity",
        "clock",
        "counters",
        "core_bandwidth",
        "trace",
    )

    def __init__(
        self,
        ctx: RunContext,
        work: TaskloopWork,
        plan: TaskloopPlan,
        pool: WorkerPool,
        rng: np.random.Generator,
        ledger: OverheadLedger,
    ):
        states = ctx.states
        reuse = work.reuse
        if not (0.0 <= reuse <= 1.0):
            raise MemoryModelError(f"reuse potential must lie in [0, 1], got {reuse}")
        working_set = work.effective_working_set
        capacity = [
            ctx.cache.capacity_factor(node, working_set)
            for node in range(ctx.topology.num_nodes)
        ]
        if not (0.0 <= work.mem_frac <= 1.0):
            raise SimulationError(f"mem_frac must lie in [0, 1], got {work.mem_frac}")
        if work.gamma < 0:
            raise SimulationError(f"gamma must be non-negative, got {work.gamma}")
        if work.region.pages.num_nodes != states.num_nodes:
            raise SimulationError(
                f"weights must have shape ({states.num_nodes},), got "
                f"({work.region.pages.num_nodes},)"
            )
        for core in pool.by_core:
            if not (0 <= core < states.num_cores):
                raise SimulationError(f"unknown core {core}")
        self.work = work
        self.plan = plan
        self.pool = pool
        self.rng = rng
        self.ledger = ledger
        self.states = states
        self.region = work.region
        self.pattern = work.pattern
        self.reuse = reuse
        self.mem_frac = work.mem_frac
        self.compute_frac = 1.0 - work.mem_frac
        self.gamma = work.gamma
        self.capacity = capacity
        self.clock = ctx.sim.clock
        self.counters = ctx.counters if ctx.counters.enabled else None
        self.core_bandwidth = ctx.bandwidth.core_bandwidth
        self.trace = ctx.trace if ctx.trace.enabled else None

    def start(
        self, worker: Worker, chunk: Chunk, overhead: float, source: str, victim_core: int
    ) -> None:
        """Resolve the chunk's memory view for ``worker``'s core and start it."""
        core = worker.core_id
        node = worker.node_id
        # through the module global: the memory layer's one entry point
        access = chunk_access(self.region, self.pattern, chunk.lo_frac, chunk.hi_frac, node)
        last_touch = access.reuse_fraction
        if not (0.0 <= last_touch <= 1.0 + 1e-9):
            raise MemoryModelError(
                f"last-touch fraction must lie in [0, 1], got {last_touch}"
            )
        # achieved reuse: potential x last-touch locality x the node's
        # cache-capacity factor (repro.memory.cache)
        reuse_eff = self.reuse * min(last_touch, 1.0) * self.capacity[node]
        body_time = chunk.body_time
        mem_eff = body_time * self.mem_frac * (1.0 - reuse_eff)
        body = body_time * self.compute_frac + mem_eff
        mem_frac = mem_eff / body if body > 0 else 0.0
        weights = access.node_weights
        counters = self.counters
        if counters is not None:
            # modelled DRAM traffic: solo streaming rate times memory time
            bytes_total = mem_eff * self.core_bandwidth
            remote_w = 1.0 - float(weights[node])
            counters.add_chunk_traffic(bytes_total, bytes_total * remote_w)
        states = self.states
        if states.active[core]:
            raise SimulationError(f"core {core} is already running a task")
        if body < 0 or overhead < 0 or body + overhead <= 0:
            raise SimulationError(
                f"task must have positive cost (body={body}, overhead={overhead})"
            )
        if not (0.0 <= mem_frac <= 1.0):
            raise SimulationError(f"mem_frac must lie in [0, 1], got {mem_frac}")
        now = self.clock.now
        states.active[core] = True
        states.rem[core] = body
        states.ov[core] = overhead
        states.mem_frac[core] = mem_frac
        states.gamma[core] = self.gamma
        states.weights[core] = weights
        states.payload[core] = (access, chunk, node, now)
        states.changed.append(core)
        trace = self.trace
        if trace is not None and source == "steal_remote":
            trace.add_steal(
                StealRecord(
                    taskloop=self.work.uid,
                    chunk_index=chunk.index,
                    thief_core=core,
                    victim_core=victim_core,
                    remote=True,
                    time=now,
                )
            )

    def finish(self, core: int) -> None:
        """Retire the completed chunk on ``core`` and commit its memory
        side effects."""
        states = self.states
        if not states.active[core]:
            raise SimulationError(f"core {core} is not running a task")
        access, chunk, node, start = states.payload[core]
        states.active[core] = False
        states.rem[core] = 0.0
        states.ov[core] = 0.0
        states.mem_frac[core] = 0.0
        states.gamma[core] = 0.0
        states.weights[core] = 0.0
        states.payload[core] = None
        states.changed.append(core)
        access.commit()
        trace = self.trace
        if trace is not None:
            trace.add_task(
                TaskRecord(
                    taskloop=chunk.work.uid,
                    chunk_index=chunk.index,
                    core=core,
                    node=node,
                    start=start,
                    end=self.clock.now,
                    base_time=chunk.body_time,
                    stolen=chunk.stolen,
                )
            )


class _Lanes:
    """The fused step's per-lane buffers (one set per taskloop) and the two
    expressions that core speed enters.

    Each method takes ``states`` for the speeds; ``None`` means unit speed
    (``CoreStates.unit_speed``).  ``x / 1.0`` and ``x * 1.0`` are ``x`` in
    IEEE arithmetic for every value, signed zeros and infinities included,
    so the unit branch leaves out the speed operations and writes the same
    bits.
    """

    __slots__ = ("times", "ov_wall", "burn_wall", "tmp", "body_wall", "prog")

    def __init__(self, num_cores: int):
        self.times = np.empty(num_cores)
        self.ov_wall = np.empty(num_cores)
        self.burn_wall = np.empty(num_cores)
        self.tmp = np.empty(num_cores)
        self.body_wall = np.empty(num_cores)
        self.prog = np.empty(num_cores)

    def completion_times(
        self, ov: np.ndarray, rem: np.ndarray, slowdown: np.ndarray, states: CoreStates | None
    ) -> np.ndarray:
        """``(ov + rem * s) / speed`` per lane, into ``times``; offline lanes
        (``speed_div = 1``) are pinned to ``inf`` like the reference's
        ``CoreStates.completion_times``."""
        times = self.times
        np.multiply(rem, slowdown, out=times)
        np.add(ov, times, out=times)
        if states is not None:
            np.divide(times, states.speed_div, out=times)
            if states.any_offline:
                np.copyto(times, np.inf, where=states.offline)
        return times

    def burn(
        self, dt: float, ov: np.ndarray, slowdown: np.ndarray, states: CoreStates | None
    ) -> None:
        """Burn up to ``dt`` of each lane's overhead ``ov`` (in place) and
        write the body progress of the step's remainder into ``prog``:
        ``CoreStates.advance``'s overhead and progress expressions."""
        burn = self.burn_wall
        body_wall = self.body_wall
        prog = self.prog
        if states is None:
            np.minimum(ov, dt, out=burn)
            np.subtract(ov, burn, out=ov)
            np.subtract(dt, burn, out=body_wall)
            np.divide(body_wall, slowdown, out=prog)
            return
        speed = states.speed
        ov_wall = self.ov_wall
        tmp = self.tmp
        np.divide(ov, states.speed_div, out=ov_wall)
        if states.any_offline:
            np.copyto(ov_wall, np.inf, where=states.offline)
        np.minimum(ov_wall, dt, out=burn)
        np.multiply(burn, speed, out=tmp)
        np.subtract(ov, tmp, out=ov)
        np.subtract(dt, burn, out=body_wall)
        np.multiply(body_wall, speed, out=prog)
        np.divide(prog, slowdown, out=prog)


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

        enc = _Encounter(ctx, work, plan, pool, ctx.rng("runtime", "steal"), ledger)
        executed, steals_local, steals_remote = self._loop(enc)

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
    def _loop(self, enc: _Encounter) -> tuple[int, int, int]:
        """The change-driven dispatch-advance loop (the incremental engine).

        Bit-identical by construction to the from-scratch reference loop
        (:class:`repro.runtime.reference.ReferenceExecutor`, the
        differential oracle), with three hot-path substitutions:

        * slowdowns come from the :class:`~repro.sim.incremental.
          IncrementalInterference` cache (rows recomputed with the
          reference's own expressions, only on a change);
        * dispatch walks a maintained idle-core list in ascending core
          order — the same ``acquire`` call sequence the reference's
          full-pool scan makes, without touching active workers, minus
          the calls of cores the steal policy reports exhausted, which
          could only fail with no side effect;
        * completion times and the advance run maskless over all cores
          into preallocated buffers, with idle cores parked at
          ``ov = inf, rem = 0`` so every idle lane is an exact bitwise
          no-op of the reference's masked computation: its completion
          time is ``inf``, its overhead burns the whole step at no cost,
          its body progresses by exactly ``0.0`` and it never completes.
          While ``CoreStates.unit_speed`` holds, the speed operations,
          identities then, are skipped.
        """
        ctx = self.ctx
        states = ctx.states
        inc = ctx.incremental
        sim = ctx.sim
        events = sim.events
        clock = sim.clock
        counters = ctx.counters
        sample_counters = counters.enabled
        finish = enc.finish
        total_chunks = enc.plan.total_chunks
        num_threads = enc.plan.num_threads
        executed = 0
        steals_local = 0
        steals_remote = 0

        # every participating core is idle at entry (run() checked), so the
        # idle list starts as the pool's ascending core order; a core that
        # dispatch retires leaves both the list and the live count
        idle = [w.core_id for w in enc.pool]
        live_workers = len(idle)
        sl, sr, idle, retired = self._dispatch(enc, idle)
        steals_local += sl
        steals_remote += sr
        live_workers -= retired
        active_count = live_workers - len(idle)

        num_cores = states.num_cores
        rem = states.rem
        ov = states.ov
        active = states.active
        busy_time = states.busy_time
        work_done = states.work_done
        # preallocated step buffers (per taskloop, not per step)
        lanes = _Lanes(num_cores)
        completion_times = lanes.completion_times
        burn = lanes.burn
        tmp = lanes.tmp
        prog = lanes.prog
        new_rem = np.empty(num_cores)
        delta = np.empty(num_cores)
        done = np.empty(num_cores, dtype=bool)
        minimum = np.minimum.reduce

        # park idle cores at ov = inf (rem is 0.0 on every idle core):
        # (inf + 0*s)/speed = inf reproduces the reference's inf fill
        # without building a mask every step
        ov[~active] = np.inf
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
                        f"{enc.work.uid!r} remain but no core can acquire work"
                    )
                slowdown = inc.slowdowns()
                if sample_counters:
                    mean_sat, max_sat = inc.saturation_scalars()
                # noise/asymmetry rebind the speed arrays and move the
                # flag: read once per step, for both speed expressions
                speeds = None if states.unit_speed else states
                dt_complete = float(minimum(completion_times(ov, rem, slowdown, speeds)))
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
                    # active lanes, exact no-op on idle lanes (ov = inf,
                    # rem = 0, slowdown = 1: the step burns as overhead)
                    # and on offline lanes (burn covers the step at speed
                    # 0: nothing progresses)
                    burn(dt, ov, slowdown, speeds)
                    np.subtract(rem, prog, out=tmp)
                    np.maximum(tmp, 0.0, out=new_rem)
                    np.add(busy_time, dt, out=busy_time, where=active)
                    np.subtract(rem, new_rem, out=delta)
                    work_done += delta
                    rem[:] = new_rem
                    # rem <= EPS and ov <= EPS, as one compare
                    np.maximum(rem, ov, out=tmp)
                    np.less_equal(tmp, EPS, out=done)
                    completed = done.nonzero()[0].tolist()
                else:
                    completed = []
                online_epoch = states.online_epoch
                clock.advance(dt)
                sim.run_due_events()
                for core in completed:
                    finish(core)
                    ov[core] = np.inf  # finish reset it to 0.0; re-park
                    executed += 1
                if completed or states.online_epoch != online_epoch:
                    if completed:
                        idle.extend(completed)
                        idle.sort()
                    sl, sr, idle, retired = self._dispatch(enc, idle)
                    steals_local += sl
                    steals_remote += sr
                    live_workers -= retired
                    active_count = live_workers - len(idle)
        finally:
            # leave idle cores exactly as the reference does (ov = 0.0)
            ov[~states.active] = 0.0
        return executed, steals_local, steals_remote

    # ------------------------------------------------------------------
    def _dispatch(
        self, enc: _Encounter, idle: list[int]
    ) -> tuple[int, int, list[int], int]:
        """Give every idle participating core a task if one is available.

        Loops until a full pass makes no progress, because one worker's
        acquisition can expose work to another (e.g. a remote steal only
        becomes legal once the thief's node is fully drained).

        The reference scans every pool worker per pass and skips the
        active ones; since an ``acquire`` can only activate the acquiring
        worker (cores never turn idle mid-dispatch), iterating the sorted
        idle list makes the *identical* sequence of ``acquire`` calls —
        same workers, same order, same RNG draws, same ledger charges —
        without touching the active majority.  A core whose acquire fails
        while the policy reports it exhausted is retired: every later
        acquire of it in this encounter would fail too, drawing nothing
        and charging nothing, so leaving those calls out changes no bit.
        Returns the steal counts, the updated list and how many cores it
        retired.
        """
        steals_local = 0
        steals_remote = 0
        retired = 0
        pool = enc.pool
        policy = enc.plan.policy
        acquire = policy.acquire
        exhausted = policy.exhausted
        rng = enc.rng
        params = self.ctx.params
        ledger = enc.ledger
        start = enc.start
        by_core = pool.by_core
        online = self.ctx.states.online
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
                acq = acquire(worker, pool, rng, params, ledger)
                if acq is None:
                    if exhausted(worker, pool):
                        retired += 1
                    else:
                        still_idle.append(core)
                    continue
                progress = True
                if acq.source == "steal_local":
                    steals_local += 1
                elif acq.source == "steal_remote":
                    steals_remote += 1
                start(worker, acq.chunk, acq.overhead, acq.source, acq.victim_core)
            idle = still_idle
        return steals_local, steals_remote, idle, retired

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
