"""The multi-tenant scheduling service.

:class:`SchedulingService` glues the subsystem together: N concurrent
clients submit taskloop campaigns as *jobs*; a bounded
:class:`~repro.serve.admission.AdmissionQueue` applies backpressure; the
:class:`~repro.serve.arbiter.NodeArbiter` grants each job a disjoint
NUMA-node lease (topology-proximate, seeded by the tenant's PTT history);
inside its lease each job runs the ILAN scheduler unchanged via the
lease-constrained moldability entry point; execution reuses the
experiment runner's content-addressed cache, so a previously-seen job
completes without simulating anything.

Job lifecycle::

    submit ──ok──▶ QUEUED ──lease granted──▶ RUNNING ──▶ COMPLETED
       │              ▲                         │
       │              └──crash / transient──────┤ (within attempt budget)
       │                                        │
       └──▶ AdmissionRejected                   └──────▶ FAILED
            (queue_full | draining)                      (error | JobFailed |
                                                          deadline_exceeded)

Simulations are CPU-bound pure Python, so each job runs on a worker
thread (``run_in_executor``) while the event loop keeps serving
submissions, status lookups, pending waits and metrics snapshots.  The
listener, the op dispatcher and the idempotent drain are the one wire
front end (:class:`~repro.serve.frontend.WireFrontEnd`); this class is
its single-machine backend.  Graceful drain stops admission (typed
``draining`` rejections), lets every admitted job finish, then stops the
listener — zero jobs are ever dropped.

Failure model & recovery:

* a worker that dies mid-job (:class:`~repro.serve.faults.WorkerCrashed`)
  has its lease *reclaimed*, its job requeued within the attempt budget,
  and is itself respawned by the supervisor, so worker capacity survives
  any number of crashes;
* a retryable :class:`~repro.errors.TransientRunnerError` from the
  execution path requeues the job the same way (``retried`` counter);
* each job may carry a running-time deadline (``deadline_s``, or the
  service-wide ``default_deadline_s``); a watchdog cancels overruns into
  a terminal ``deadline_exceeded`` failure;
* a job that exhausts its attempt budget fails with a typed
  :class:`~repro.errors.JobFailed` carrying the full attempt history.

All of this is deterministic under an injected
:class:`~repro.serve.faults.FaultPlan` — the chaos tests replay seeded
plans and assert the exact end state.
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    JobFailed,
    ReproError,
    TransientRunnerError,
)
from repro.exp.runner import LEASE_SCHEDULERS, ExperimentConfig, Runner, RunSpec
from repro.runtime.results import AppRunResult
from repro.serve.admission import AdmissionQueue
from repro.serve.arbiter import LeaseLedger, NodeArbiter
from repro.serve.faults import FaultKind, FaultPlan, WorkerCrashed
from repro.serve.frontend import WireFrontEnd
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import (
    AdmissionRejected,
    JobRecord,
    JobRequest,
    JobState,
    ProtocolError,
)
from repro.serve.tenantstate import TenantStateStore
from repro.topology.machine import MachineTopology
from repro.topology.presets import default_distances, zen4_9354
from repro.workloads.registry import benchmark_names

__all__ = ["SchedulingService"]


class SchedulingService(WireFrontEnd):
    """One simulated machine shared by many concurrently submitted jobs."""

    def __init__(
        self,
        topology: MachineTopology | None = None,
        *,
        config: ExperimentConfig | None = None,
        queue_capacity: int = 16,
        workers: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        fault_plan: FaultPlan | None = None,
        max_attempts: int = 3,
        default_deadline_s: float | None = None,
        latency_reservoir: int = 1024,
    ):
        super().__init__()
        self.topology = topology or zen4_9354()
        self.config = config or ExperimentConfig.from_env()
        self.runner = Runner(self.config, topology=self.topology)
        self.clock = clock
        ledger = LeaseLedger(self.topology, default_distances(self.topology))
        self.arbiter = NodeArbiter(ledger)
        self.admission: AdmissionQueue[JobRecord] = AdmissionQueue(queue_capacity)
        self.metrics = ServiceMetrics(clock=clock, reservoir_size=latency_reservoir)
        self.fault_plan = fault_plan
        if max_attempts < 1:
            raise ConfigurationError(
                f"a job needs at least one attempt, got max_attempts={max_attempts}"
            )
        self.max_attempts = max_attempts
        if default_deadline_s is not None and not default_deadline_s > 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive or None, got {default_deadline_s}"
            )
        self.default_deadline_s = default_deadline_s
        self.records: dict[str, JobRecord] = {}
        #: One signal per waited-on job, set (and dropped) when the job
        #: finishes or leaves this service: what ``wait`` blocks on.
        self._signals: dict[str, asyncio.Event] = {}
        # per-(tenant, benchmark) warm state: the fastest node observed in
        # the tenant's previous jobs seeds the next lease's growth, and the
        # full checkpoint (reconstructed PTT + generation) is what the
        # federation migrates when the tenant is rehomed
        self.tenant_state = TenantStateStore()
        self._workers = workers if workers is not None else self.topology.num_nodes
        if self._workers < 1:
            raise ConfigurationError(f"need at least one worker, got {self._workers}")
        self._worker_tasks: list[asyncio.Task] = []
        self._worker_seq = 0
        self.workers_crashed = 0
        self._job_counter = 0

    # ------------------------------------------------------------------
    # lifecycle (the listener and the idempotent drain are the front end's)
    # ------------------------------------------------------------------
    async def _start_backend(self, host: str) -> None:
        self.start_workers()

    def start_workers(self) -> None:
        """In-process mode: start only the worker pool (no TCP listener)."""
        if self._worker_tasks:
            raise RuntimeError("service already started")
        for _ in range(self._workers):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        task = asyncio.create_task(
            self._worker(), name=f"serve-worker-{self._worker_seq}"
        )
        self._worker_seq += 1
        task.add_done_callback(self._worker_exited)
        self._worker_tasks.append(task)

    def _worker_exited(self, task: asyncio.Task) -> None:
        """Supervisor: replace a crashed worker so capacity never shrinks."""
        if task.cancelled():
            return
        if isinstance(task.exception(), WorkerCrashed):
            self.workers_crashed += 1
            self._worker_tasks.remove(task)
            self._spawn_worker()

    async def _drain_backend(self) -> None:
        """Stop admission and let every admitted job finish.

        Safe to run mid-fault: a crash during drain still requeues its
        job (recovery re-admission bypasses the draining rejection), so
        every admitted job reaches a terminal state before it returns.
        """
        self.admission.start_drain()
        await self.admission.join()
        # crashed workers are respawned by the supervisor (a done
        # callback), so gather until the roster is quiescent
        while True:
            await asyncio.gather(*list(self._worker_tasks), return_exceptions=True)
            await asyncio.sleep(0)  # let pending respawn callbacks run
            if all(t.done() for t in self._worker_tasks):
                break

    # ------------------------------------------------------------------
    # submission (in-process API; the wire handler calls this too)
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> JobRecord:
        """Admit one job or raise a typed error; never blocks.

        Raises :class:`ProtocolError` for requests the machine can never
        run and :class:`AdmissionRejected` when the bounded queue is
        saturated or the service is draining.
        """
        record = self._new_record(request)
        try:
            self.admission.offer(record)
        except AdmissionRejected as exc:
            self._job_counter -= 1
            self.metrics.record_rejected(exc.code)
            raise
        self.records[record.job_id] = record
        self.metrics.record_submitted()
        return record

    def _new_record(self, request: JobRequest) -> JobRecord:
        """Validate ``request`` and give it the next local job id."""
        self._validate(request)
        self._job_counter += 1
        return JobRecord(
            job_id=f"job-{self._job_counter:05d}",
            request=request,
            submitted_at=self.clock(),
        )

    def _validate(self, request: JobRequest) -> None:
        request.validate()
        if request.benchmark not in benchmark_names():
            raise ProtocolError(
                f"unknown benchmark {request.benchmark!r}; "
                f"known: {benchmark_names()}"
            )
        if request.nodes > self.topology.num_nodes:
            raise ProtocolError(
                f"job wants {request.nodes} NUMA node(s) but the machine has "
                f"{self.topology.num_nodes}"
            )
        if request.scheduler not in LEASE_SCHEDULERS:
            from repro.runtime.schedulers.base import create_scheduler

            try:
                create_scheduler(request.scheduler)
            except ConfigurationError as exc:
                raise ProtocolError(str(exc)) from exc
            if request.nodes != self.topology.num_nodes:
                raise ProtocolError(
                    f"scheduler {request.scheduler!r} cannot be confined to a "
                    f"node lease; request nodes={self.topology.num_nodes} "
                    "(the whole machine) to run it exclusively"
                )

    def adopt(self, request: JobRequest) -> JobRecord:
        """Federation re-admission: accept a job evicted from another shard.

        Like :meth:`submit` but routed through the recovery-re-admission
        path, so it bypasses the capacity bound and the draining
        rejection — the job was already admitted once (on the shard that
        saturated or died), and the federation's conservation invariant
        requires it to land *somewhere*.  Only the router calls this;
        client submissions keep the full backpressure contract.
        """
        record = self._new_record(request)
        self.admission.requeue(record)
        self.records[record.job_id] = record
        self.metrics.record_submitted()
        return record

    def evict_queued(self, count: int) -> list[JobRecord]:
        """Give up the ``count`` youngest *waiting* jobs (federation rebalance).

        The evicted records leave this shard entirely — dropped from the
        record table, tallied under ``evicted`` — and the caller re-admits
        them elsewhere.  Running jobs are never evicted (their lease and
        executor thread live here), and the FIFO head is never touched,
        so per-shard no-starvation ordering survives the rebalance.
        """
        evicted = self.admission.evict_newest(count)
        for record in evicted:
            del self.records[record.job_id]
            self._signal(record.job_id)
            self.metrics.record_evicted()
        return evicted

    async def kill(self) -> list[JobRecord]:
        """Shard death: stop everything, reclaim every lease, orphan all
        non-terminal jobs.

        The federation's coarse failure domain — the whole service dies
        at once.  Worker coroutines are cancelled (their executor
        threads, if any, are abandoned and their results dropped), every
        lease is reclaimed back into the ledger, the admission queue is
        emptied, and every job not yet terminal is returned for the
        router to requeue on a surviving shard.  The dead service's
        metrics stay readable and conservation-consistent: orphans are
        tallied as ``evicted``.
        """
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks.clear()
        self.admission.clear()
        self.admission.start_drain()  # anything submitted post-mortem bounces
        orphans = sorted(
            (r for r in self.records.values() if not r.state.terminal),
            key=lambda r: r.job_id,
        )
        for record in orphans:
            await self.arbiter.reclaim(record.job_id)
        # defensive sweep: a lease whose record already went terminal would
        # be a bug elsewhere, but a dead shard must never pin nodes
        for job_id in list(self.arbiter.ledger.leases()):
            await self.arbiter.reclaim(job_id)
        await self._close_listener()
        # the record deletions stay after every await above so the death
        # is atomic to concurrent observers: a status poll interleaved
        # with the reclaim loop sees either the old world or the fully
        # dead one, never a half-emptied records table
        for record in orphans:
            del self.records[record.job_id]
            self._signal(record.job_id)
            self.metrics.record_evicted()
        return orphans

    def status(self, job_id: str) -> JobRecord:
        record = self.records.get(job_id)
        if record is None:
            raise ProtocolError(f"unknown job {job_id!r}")
        return record

    async def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until the job is terminal or has left this service
        (:meth:`kill`, :meth:`evict_queued`); returns its record.

        With ``timeout`` (seconds), returns the record as it stands once
        that expires.  Raises :class:`ProtocolError` for an unknown job.
        """
        record = self.status(job_id)
        if not record.state.terminal:
            signal = self._signals.setdefault(job_id, asyncio.Event())
            try:
                await asyncio.wait_for(signal.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        return record

    def _signal(self, job_id: str) -> None:
        """Wake every ``wait`` on the job: it finished or left."""
        signal = self._signals.pop(job_id, None)
        if signal is not None:
            signal.set()

    # the wire view of the two calls above, for the front end's dispatcher
    def ping_fields(self) -> dict[str, Any]:
        return {"machine": self.topology.describe()}

    async def submit_fields(self, request: JobRequest) -> dict[str, Any]:
        record = self.submit(request)
        return {"job_id": record.job_id, "state": record.state.value}

    async def status_wire(self, job_id: str) -> dict[str, Any]:
        return self.status(job_id).to_wire()

    async def wait_wire(self, job_id: str, timeout_s: float | None) -> dict[str, Any]:
        await self.wait(job_id, timeout_s)
        return await self.status_wire(job_id)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        """Pull admitted jobs, arbitrate a lease, execute, release."""
        while True:
            record = await self.admission.take()
            if record is None:
                return  # drained dry
            try:
                await self._run_job(record)
            except WorkerCrashed as exc:
                # recovery must land before this attempt's task_done so
                # the queue's unfinished count never momentarily hits 0
                await self._recover_crashed(record, exc)
                raise  # the worker dies; the supervisor respawns it
            finally:
                self.admission.task_done()

    async def _run_job(self, record: JobRecord) -> None:
        req = record.request
        attempt = record.attempts  # 0-based index of this attempt
        plan = self.fault_plan
        hint = self.tenant_state.hint(req.tenant, req.benchmark)
        if attempt == 0:  # count once per job, not per retry
            if hint is None:
                self.metrics.record_cold_bootstrap()
            else:
                self.metrics.record_warm_start()
        try:
            mask = await self.arbiter.acquire(record.job_id, req.nodes, preferred=hint)
        except ReproError as exc:
            self._finish(record, error=f"{type(exc).__name__}: {exc}")
            return
        record.lease_nodes = mask.indices()
        record.state = JobState.RUNNING
        record.started_at = self.clock()
        deadline = (
            req.deadline_s if req.deadline_s is not None else self.default_deadline_s
        )

        if plan is not None and plan.should_inject(
            record.job_id, FaultKind.WORKER_CRASH, attempt
        ):
            plan.record_injection(FaultKind.WORKER_CRASH)
            raise WorkerCrashed(
                f"injected crash of the worker running {record.job_id} "
                f"(attempt {attempt + 1})"
            )

        error: str | None = None
        retryable = False
        try:
            runs = await self._execute(record, attempt, deadline)
            record.result = self._summarize(runs)
            self._remember_fastest_node(req, runs)
        except asyncio.TimeoutError:
            self.metrics.record_deadline_exceeded()
            error = (
                f"DeadlineExceeded: job ran past its {deadline:g}s deadline "
                "and was cancelled by the watchdog"
            )
        except TransientRunnerError as exc:
            error = f"{type(exc).__name__}: {exc}"
            retryable = True
        except Exception as exc:  # a failed job must never kill its worker
            error = f"{type(exc).__name__}: {exc}"
        finally:
            await self.arbiter.release(record.job_id)

        if error is None:
            self._finish(record, error=None)
            return
        record.record_attempt_failure(
            error, started_at=record.started_at, failed_at=self.clock()
        )
        if retryable and record.attempts < self.max_attempts:
            self.metrics.record_retried()
            self._requeue(record)
        else:
            self._fail_terminal(record, error)

    async def _execute(
        self, record: JobRecord, attempt: int, deadline: float | None
    ) -> list[AppRunResult]:
        """Run the job's campaign on an executor thread, under the watchdog.

        Fault seams: a ``deadline`` fault substitutes a hang the watchdog
        must cancel; a ``transient`` fault raises from inside the runner
        call via its ``fault_hook``.
        """
        req = record.request
        plan = self.fault_plan

        if (
            plan is not None
            and deadline is not None
            and plan.should_inject(record.job_id, FaultKind.DEADLINE_HANG, attempt)
        ):
            plan.record_injection(FaultKind.DEADLINE_HANG)
            # a hang that outlives any deadline; wait_for cancels it cleanly
            await asyncio.wait_for(asyncio.Event().wait(), timeout=deadline)
            raise AssertionError("unreachable: the hang never resolves")

        fault_hook: Callable[[Sequence[RunSpec]], None] | None = None
        if plan is not None and plan.should_inject(
            record.job_id, FaultKind.TRANSIENT_ERROR, attempt
        ):
            job_id = record.job_id

            def fault_hook(specs: Sequence[RunSpec]) -> None:
                plan.record_injection(FaultKind.TRANSIENT_ERROR)
                raise TransientRunnerError(
                    f"injected transient runner error in {job_id} "
                    f"(attempt {attempt + 1})"
                )

        lease_bits = None
        if req.scheduler in LEASE_SCHEDULERS and record.lease_nodes is not None:
            from repro.topology.affinity import NodeMask

            lease_bits = NodeMask.from_indices(
                record.lease_nodes, self.topology.num_nodes
            ).bits
        specs = self.runner.job_specs(
            req.benchmark,
            req.scheduler,
            seeds=req.seeds,
            timesteps=req.timesteps,
            lease_bits=lease_bits,
        )
        loop = asyncio.get_running_loop()
        # only pass fault_hook when injecting, so tests substituting a plain
        # run_specs(specs) callable keep working
        call = (
            functools.partial(self.runner.run_specs, specs)
            if fault_hook is None
            else functools.partial(self.runner.run_specs, specs, fault_hook=fault_hook)
        )
        fut = loop.run_in_executor(None, call)
        if deadline is None:
            return await fut
        # NOTE: a real (non-injected) overrun abandons its executor thread
        # (threads are not cancellable); the lease is still released and
        # the job fails deterministically — the thread's result is dropped.
        return await asyncio.wait_for(fut, timeout=deadline)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    async def _recover_crashed(self, record: JobRecord, exc: WorkerCrashed) -> None:
        """A worker died mid-job: reclaim its lease, requeue or fail the job."""
        mask = await self.arbiter.reclaim(record.job_id)
        if mask is not None:
            self.metrics.record_lease_reclaimed()
        error = f"{type(exc).__name__}: {exc}"
        record.record_attempt_failure(
            error, started_at=record.started_at, failed_at=self.clock()
        )
        if record.attempts < self.max_attempts:
            self.metrics.record_requeued()
            self._requeue(record)
        else:
            self._fail_terminal(record, error)

    def _requeue(self, record: JobRecord) -> None:
        """Send a faulted job around again (recovery re-admission)."""
        record.state = JobState.QUEUED
        record.started_at = None
        record.lease_nodes = None
        record.result = None
        self.admission.requeue(record)

    def _fail_terminal(self, record: JobRecord, error: str) -> None:
        """Fail for good; with a history, the error is a typed JobFailed."""
        if record.attempt_history:
            error = str(JobFailed(record.job_id, record.attempt_history))
        self._finish(record, error=error)

    def _finish(self, record: JobRecord, *, error: str | None) -> None:
        record.error = error
        record.state = JobState.COMPLETED if error is None else JobState.FAILED
        record.finished_at = self.clock()
        latency = record.finished_at - record.submitted_at
        if error is None:
            self.metrics.record_completed(latency)
        else:
            self.metrics.record_failed(latency)
        self._signal(record.job_id)

    @staticmethod
    def _summarize(runs: list[AppRunResult]) -> dict[str, Any]:
        times = [r.total_time for r in runs]
        return {
            "runs": len(runs),
            "total_time_mean_s": sum(times) / len(times),
            "total_time_min_s": min(times),
            "total_time_max_s": max(times),
            "weighted_avg_threads": sum(r.weighted_avg_threads for r in runs)
            / len(runs),
        }

    def _remember_fastest_node(self, req: JobRequest, runs: list[AppRunResult]) -> None:
        """Checkpoint the tenant's warm state from the job's measurements.

        The fastest observed node seeds the tenant's next lease; the full
        taskloop history is folded into the (tenant, benchmark)
        checkpoint the federation migrates when the tenant is rehomed.
        """
        perfs = [
            tl.node_perf
            for run in runs
            for tl in run.taskloops
            if tl.node_perf is not None
        ]
        if not perfs:
            return
        stacked = np.vstack(perfs)
        valid = ~np.isnan(stacked)
        counts = valid.sum(axis=0)
        if not counts.any():
            return
        # nanmean without the all-NaN-column RuntimeWarning: nodes the job
        # never measured stay NaN and lose the argmax below.
        mean = np.where(valid, stacked, 0.0).sum(axis=0) / np.maximum(counts, 1)
        mean[counts == 0] = np.nan
        self.tenant_state.checkpoint(
            req.tenant,
            req.benchmark,
            fastest_node=int(np.nanargmax(mean)),
            runs=runs,
            num_nodes=self.topology.num_nodes,
        )

    # ------------------------------------------------------------------
    # tenant-state migration (federation)
    # ------------------------------------------------------------------
    def import_tenant_state(self, doc: dict[str, Any]) -> bool:
        """Adopt a migrated checkpoint; ``False`` when the generation
        guard refused a stale document."""
        return self.tenant_state.import_doc(doc)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """The JSON-able live state: queue, leases, counters, every job."""
        states = [r.state for r in self.records.values()]
        return self.metrics.snapshot(
            queue_depth=self.admission.depth,
            queue_capacity=self.admission.capacity,
            draining=self.admission.draining,
            active=sum(1 for s in states if s is JobState.RUNNING),
            queued=sum(1 for s in states if s is JobState.QUEUED),
            lease_map=self.arbiter.ledger.lease_map(),
            waiting_for_lease=self.arbiter.waiting,
            jobs={jid: r.to_wire() for jid, r in self.records.items()},
            faults_injected=(
                dict(self.fault_plan.injected) if self.fault_plan is not None else None
            ),
            tenant_state=self.tenant_state.describe(),
        )
