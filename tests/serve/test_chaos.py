"""Chaos suite: seeded fault plans replayed against the service.

The contract under test: whatever a (deterministic, seeded) fault plan
throws at the service — worker crashes, transient runner errors, deadline
hangs, budget exhaustion — the service always converges to drained with
every admitted job in a terminal state, conservation holding
(``submitted == completed + failed + active + queued``), zero leaked
leases, and every fault visible in the metrics counters.  And because the
plans are seeded, two identical runs must produce *identical* end states.
"""

import asyncio
import json
import random
from collections import Counter

import pytest

from repro.errors import ServeError, TransientRunnerError
from repro.exp.runner import ExperimentConfig
from repro.serve.client import ServiceClient
from repro.serve.faults import FaultKind, FaultPlan, WorkerCrashed, parse_fault_spec
from repro.serve.protocol import AdmissionRejected, JobRequest, JobState
from repro.serve.server import SchedulingService
from repro.topology.presets import dual_socket_small

TIMEOUT = 60  # generous hang guard; the whole module runs in seconds


def _fast_config(**overrides):
    base = dict(seeds=1, timesteps=3, with_noise=False, jobs=1, cache_dir=None)
    base.update(overrides)
    return ExperimentConfig(**base)


def _service(**kwargs):
    kwargs.setdefault("config", _fast_config())
    return SchedulingService(dual_socket_small(), **kwargs)


def _conserves(snapshot) -> bool:
    jobs = snapshot["jobs"]
    return jobs["submitted"] == (
        jobs["completed"] + jobs["failed"] + jobs["active"] + jobs["queued"]
    )


def _all_leases_free(snapshot) -> bool:
    return all(owner is None for owner in snapshot["nodes"]["leases"].values())


# ----------------------------------------------------------------------
# FaultPlan: spec parsing and seeded determinism
# ----------------------------------------------------------------------
def test_parse_fault_spec_round_trip():
    probs = parse_fault_spec("crash=0.2, transient=0.3,deadline=0.1,disconnect=0.05")
    assert probs == {
        FaultKind.WORKER_CRASH: 0.2,
        FaultKind.TRANSIENT_ERROR: 0.3,
        FaultKind.DEADLINE_HANG: 0.1,
        FaultKind.CLIENT_DISCONNECT: 0.05,
    }
    plan = FaultPlan(probs, seed=3)
    assert FaultPlan.from_spec(plan.to_spec(), seed=3).probabilities == probs


@pytest.mark.parametrize(
    "bad",
    [
        "explode=0.5",          # unknown kind
        "crash",                # missing probability
        "crash=lots",           # unparsable probability
        "crash=0.2,crash=0.3",  # duplicate
        "",                     # empty
    ],
)
def test_parse_fault_spec_rejects(bad):
    with pytest.raises(ServeError):
        parse_fault_spec(bad)


def test_fault_plan_rejects_bad_probabilities():
    with pytest.raises(ServeError, match="in \\[0, 1\\]"):
        FaultPlan({FaultKind.WORKER_CRASH: 1.5})
    with pytest.raises(ServeError, match="sum"):
        FaultPlan({FaultKind.WORKER_CRASH: 0.7, FaultKind.TRANSIENT_ERROR: 0.6})
    with pytest.raises(ServeError, match="fault_attempts"):
        FaultPlan({FaultKind.WORKER_CRASH: 0.5}, fault_attempts=0)


def test_fault_plan_decisions_are_seed_deterministic():
    jobs = [f"job-{i:05d}" for i in range(1, 50)]
    probs = {FaultKind.WORKER_CRASH: 0.3, FaultKind.TRANSIENT_ERROR: 0.3}
    a = FaultPlan(probs, seed=11)
    b = FaultPlan(probs, seed=11)
    c = FaultPlan(probs, seed=12)
    decisions_a = [a.decide(j) for j in jobs]
    assert decisions_a == [b.decide(j) for j in jobs]
    assert decisions_a != [c.decide(j) for j in jobs]
    # with these probabilities a 49-job sample hits both kinds and neither
    assert set(decisions_a) == {
        FaultKind.WORKER_CRASH, FaultKind.TRANSIENT_ERROR, None
    }


def test_fault_plan_certain_and_impossible_kinds():
    always = FaultPlan({FaultKind.DEADLINE_HANG: 1.0}, seed=0)
    never = FaultPlan({FaultKind.DEADLINE_HANG: 0.0}, seed=0)
    for job in ("job-00001", "job-00002", "job-00003"):
        assert always.decide(job) is FaultKind.DEADLINE_HANG
        assert never.decide(job) is None


def test_should_inject_respects_fault_attempts():
    plan = FaultPlan({FaultKind.WORKER_CRASH: 1.0}, seed=0, fault_attempts=2)
    assert plan.should_inject("job-00001", FaultKind.WORKER_CRASH, 0)
    assert plan.should_inject("job-00001", FaultKind.WORKER_CRASH, 1)
    assert not plan.should_inject("job-00001", FaultKind.WORKER_CRASH, 2)
    assert not plan.should_inject("job-00001", FaultKind.TRANSIENT_ERROR, 0)


# ----------------------------------------------------------------------
# crash recovery: lease reclamation + requeue + worker respawn
# ----------------------------------------------------------------------
def test_crashed_worker_is_respawned_and_job_recovers():
    async def run():
        plan = FaultPlan({FaultKind.WORKER_CRASH: 1.0}, seed=0, fault_attempts=1)
        service = _service(workers=2, fault_plan=plan, max_attempts=3)
        service.start_workers()
        records = [
            service.submit(JobRequest(benchmark="matmul", timesteps=3, nodes=2))
            for _ in range(3)
        ]
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

        # every job crashed once, was requeued, and completed on retry
        assert all(r.state is JobState.COMPLETED for r in records)
        assert all(r.attempts == 1 for r in records)
        assert all("WorkerCrashed" in r.attempt_history[0]["error"] for r in records)
        assert snapshot["jobs"]["completed"] == 3
        assert snapshot["recovery"]["requeued"] == 3
        assert snapshot["recovery"]["leases_reclaimed"] == 3
        assert snapshot["recovery"]["faults_injected"] == {"crash": 3}
        assert service.workers_crashed == 3
        assert _conserves(snapshot)
        assert _all_leases_free(snapshot)

    asyncio.run(run())


def test_crash_budget_exhaustion_yields_typed_job_failed():
    async def run():
        # the fault outlives the budget: 5 faulted attempts vs 2 allowed
        plan = FaultPlan({FaultKind.WORKER_CRASH: 1.0}, seed=0, fault_attempts=5)
        service = _service(workers=1, fault_plan=plan, max_attempts=2)
        service.start_workers()
        record = service.submit(JobRequest(benchmark="matmul", timesteps=3))
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

        assert record.state is JobState.FAILED
        assert record.attempts == 2
        assert len(record.attempt_history) == 2
        assert "failed after 2 attempt(s)" in record.error
        assert "WorkerCrashed" in record.error
        assert snapshot["jobs"]["failed"] == 1
        assert snapshot["recovery"]["requeued"] == 1  # only the first crash requeues
        assert snapshot["recovery"]["leases_reclaimed"] == 2
        assert _conserves(snapshot)
        assert _all_leases_free(snapshot)

    asyncio.run(run())


# ----------------------------------------------------------------------
# transient runner errors: retry within budget
# ----------------------------------------------------------------------
def test_transient_error_retries_and_completes():
    async def run():
        plan = FaultPlan({FaultKind.TRANSIENT_ERROR: 1.0}, seed=0, fault_attempts=2)
        service = _service(workers=1, fault_plan=plan, max_attempts=3)
        service.start_workers()
        record = service.submit(JobRequest(benchmark="matmul", timesteps=3))
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

        assert record.state is JobState.COMPLETED
        assert record.attempts == 2
        assert all(
            "TransientRunnerError" in a["error"] for a in record.attempt_history
        )
        assert snapshot["recovery"]["retried"] == 2
        assert snapshot["recovery"]["faults_injected"] == {"transient": 2}
        # transient retries release cleanly: nothing to reclaim
        assert snapshot["recovery"]["leases_reclaimed"] == 0
        assert _conserves(snapshot)
        assert _all_leases_free(snapshot)

    asyncio.run(run())


def test_transient_budget_exhaustion_records_history():
    async def run():
        plan = FaultPlan({FaultKind.TRANSIENT_ERROR: 1.0}, seed=0, fault_attempts=9)
        service = _service(workers=1, fault_plan=plan, max_attempts=3)
        service.start_workers()
        record = service.submit(JobRequest(benchmark="matmul", timesteps=3))
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

        assert record.state is JobState.FAILED
        assert record.attempts == 3
        assert "failed after 3 attempt(s)" in record.error
        assert snapshot["recovery"]["retried"] == 2  # third failure is terminal
        assert _conserves(snapshot)
        assert _all_leases_free(snapshot)

    asyncio.run(run())


# ----------------------------------------------------------------------
# deadlines: watchdog cancellation
# ----------------------------------------------------------------------
def test_deadline_hang_is_cancelled_by_the_watchdog():
    async def run():
        plan = FaultPlan({FaultKind.DEADLINE_HANG: 1.0}, seed=0)
        service = _service(workers=2, fault_plan=plan, max_attempts=3)
        service.start_workers()
        record = service.submit(
            JobRequest(benchmark="matmul", timesteps=3, deadline_s=0.1)
        )
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

        assert record.state is JobState.FAILED
        assert "DeadlineExceeded" in record.error
        assert snapshot["recovery"]["deadline_exceeded"] == 1
        assert snapshot["recovery"]["faults_injected"] == {"deadline": 1}
        # deadline overruns are terminal: no retry
        assert snapshot["recovery"]["retried"] == 0
        assert snapshot["recovery"]["requeued"] == 0
        assert _conserves(snapshot)
        assert _all_leases_free(snapshot)

    asyncio.run(run())


def test_service_default_deadline_applies_to_jobs_without_one():
    async def run():
        plan = FaultPlan({FaultKind.DEADLINE_HANG: 1.0}, seed=0)
        service = _service(
            workers=1, fault_plan=plan, default_deadline_s=0.1
        )
        service.start_workers()
        record = service.submit(JobRequest(benchmark="matmul", timesteps=3))
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)
        assert record.state is JobState.FAILED
        assert "DeadlineExceeded" in record.error
        assert snapshot["recovery"]["deadline_exceeded"] == 1

    asyncio.run(run())


def test_deadline_fault_without_any_deadline_is_a_noop():
    async def run():
        plan = FaultPlan({FaultKind.DEADLINE_HANG: 1.0}, seed=0)
        service = _service(workers=1, fault_plan=plan)
        service.start_workers()
        record = service.submit(JobRequest(benchmark="matmul", timesteps=3))
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)
        assert record.state is JobState.COMPLETED
        assert snapshot["recovery"]["deadline_exceeded"] == 0
        assert snapshot["recovery"]["faults_injected"] == {}

    asyncio.run(run())


# ----------------------------------------------------------------------
# mixed seeded plan over the wire, twice: identical end states
# ----------------------------------------------------------------------
#: (fault probabilities, plan seed, jobs, lease nodes) of each replayed
#: plan; the second also drops the client mid-wait
CHAOS_PLANS = {
    "crash-transient-deadline": (
        {
            FaultKind.WORKER_CRASH: 0.3,
            FaultKind.TRANSIENT_ERROR: 0.3,
            FaultKind.DEADLINE_HANG: 0.2,
        },
        7, 6, 2,
    ),
    "with-disconnects": (
        {
            FaultKind.WORKER_CRASH: 0.3,
            FaultKind.TRANSIENT_ERROR: 0.25,
            FaultKind.DEADLINE_HANG: 0.15,
            FaultKind.CLIENT_DISCONNECT: 0.15,
        },
        1, 8, 1,
    ),
}


async def _chaos_scenario(probabilities, seed, n_jobs, nodes) -> dict:
    """One full chaos run over TCP; returns a canonical (time-free) report."""
    plan = FaultPlan(probabilities, seed=seed, fault_attempts=1)
    # workers=1 keeps grant order deterministic, so the replay is exact
    service = _service(workers=1, fault_plan=plan, max_attempts=3)
    host, port = await service.start("127.0.0.1", 0)
    reconnects = 0
    async with await ServiceClient.connect(host, port) as cli:
        job_ids = [
            await cli.submit(
                JobRequest(benchmark="matmul", timesteps=3, nodes=nodes,
                           tenant=f"tenant-{i % 2}", deadline_s=1.0)
            )
            for i in range(n_jobs)
        ]
        jobs = []
        for job_id in job_ids:
            if plan.should_inject(job_id, FaultKind.CLIENT_DISCONNECT, 0):
                plan.record_injection(FaultKind.CLIENT_DISCONNECT)
                await cli.reconnect()  # drop mid-wait, dial again, resume
                reconnects += 1
            jobs.append(await cli.wait(job_id, timeout=TIMEOUT))
    async with await ServiceClient.connect(host, port) as cli:
        snapshot = await asyncio.wait_for(cli.drain(), timeout=TIMEOUT)

    assert snapshot["jobs"]["submitted"] == n_jobs
    assert _conserves(snapshot)
    assert (snapshot["jobs"]["active"], snapshot["jobs"]["queued"]) == (0, 0)
    assert _all_leases_free(snapshot)
    assert snapshot["nodes"]["waiting_for_lease"] == []
    assert all(job["state"] in ("completed", "failed") for job in jobs)

    # every injected fault shows up once in its recovery counter
    injected = plan.injected
    recovery = snapshot["recovery"]
    assert injected["crash"] > 0
    assert recovery["faults_injected"].get("crash", 0) == injected["crash"]
    assert recovery["leases_reclaimed"] == injected["crash"]
    assert recovery["retried"] == injected["transient"]
    assert recovery["deadline_exceeded"] == injected["deadline"]
    disconnects = Counter(plan.decisions().values())["disconnect"]
    assert reconnects == injected["disconnect"] == disconnects
    assert (disconnects > 0) == (FaultKind.CLIENT_DISCONNECT in probabilities)

    return {
        "decisions": plan.decisions(),
        "injected": dict(sorted(injected.items())),
        "reconnects": reconnects,
        "jobs": {
            job["job_id"]: {
                "state": job["state"],
                "attempts": job["attempts"],
                "errors": [a["error"] for a in job["attempt_history"]],
                "error": job["error"],
                "lease_nodes": job["lease_nodes"],
                "result": job["result"],
            }
            for job in jobs
        },
        "counters": {
            "completed": snapshot["jobs"]["completed"],
            "failed": snapshot["jobs"]["failed"],
            "retried": recovery["retried"],
            "requeued": recovery["requeued"],
            "deadline_exceeded": recovery["deadline_exceeded"],
            "leases_reclaimed": recovery["leases_reclaimed"],
        },
    }


@pytest.mark.parametrize("plan", sorted(CHAOS_PLANS))
def test_seeded_chaos_run_is_byte_reproducible(plan):
    first = json.dumps(asyncio.run(_chaos_scenario(*CHAOS_PLANS[plan])), sort_keys=True)
    second = json.dumps(asyncio.run(_chaos_scenario(*CHAOS_PLANS[plan])), sort_keys=True)
    assert first == second


# ----------------------------------------------------------------------
# client resilience: one-request wait and jittered retry
# ----------------------------------------------------------------------
class _StubClient(ServiceClient):
    """ServiceClient with the wire swapped out for canned behaviour."""

    def __init__(self):
        # no real streams: the stubbed methods never touch them
        super().__init__(reader=None, writer=None, host="stub", port=0)


def test_wait_without_timeout_never_wraps_in_wait_for(monkeypatch):
    client = _StubClient()

    async def fake_request(payload):
        return {"ok": True, "job": {"job_id": payload["job_id"], "state": "completed"}}

    def boom(*args, **kwargs):
        raise AssertionError("wait(timeout=None) must not use asyncio.wait_for")

    client.request = fake_request
    monkeypatch.setattr(asyncio, "wait_for", boom)
    job = asyncio.run(client.wait("job-1", timeout=None))
    assert job["state"] == "completed"


def test_submit_with_retry_uses_full_jitter_and_recovers():
    client = _StubClient()
    calls = {"n": 0}
    sleeps = []

    async def flaky_submit(request):
        calls["n"] += 1
        if calls["n"] <= 3:
            raise AdmissionRejected("queue_full", "saturated", depth=4, capacity=4)
        return "job-00042"

    async def record_sleep(delay):
        sleeps.append(delay)

    client.submit = flaky_submit

    job_id = asyncio.run(
        client.submit_with_retry(
            JobRequest(benchmark="matmul"),
            max_retries=5,
            base_delay=0.05,
            max_delay=0.3,
            rng=random.Random(123),
            sleep=record_sleep,
        )
    )
    assert job_id == "job-00042"
    assert calls["n"] == 4
    # full jitter: each delay is uniform in [0, min(cap, base * 2^attempt)]
    assert len(sleeps) == 3
    for attempt, delay in enumerate(sleeps, start=1):
        assert 0.0 <= delay <= min(0.3, 0.05 * 2**attempt)
    # the seeded schedule replays identically
    rng = random.Random(123)
    replay = [rng.uniform(0.0, min(0.3, 0.05 * 2**n)) for n in (1, 2, 3)]
    assert sleeps == replay


def test_submit_with_retry_gives_up_after_budget_and_never_retries_draining():
    client = _StubClient()

    async def always_full(request):
        raise AdmissionRejected("queue_full", "saturated", depth=4, capacity=4)

    async def draining(request):
        raise AdmissionRejected("draining", "bye")

    async def no_sleep(delay):
        pass

    client.submit = always_full
    with pytest.raises(AdmissionRejected, match="saturated"):
        asyncio.run(
            client.submit_with_retry(
                JobRequest(benchmark="matmul"), max_retries=2,
                rng=random.Random(0), sleep=no_sleep,
            )
        )

    calls = {"n": 0}

    async def counting_draining(request):
        calls["n"] += 1
        raise AdmissionRejected("draining", "bye")

    client.submit = counting_draining
    with pytest.raises(AdmissionRejected, match="bye"):
        asyncio.run(
            client.submit_with_retry(
                JobRequest(benchmark="matmul"), max_retries=5,
                rng=random.Random(0), sleep=no_sleep,
            )
        )
    assert calls["n"] == 1  # draining can never succeed: no retry


# ----------------------------------------------------------------------
# faults.py internals used by the server
# ----------------------------------------------------------------------
def test_worker_crashed_is_a_serve_error():
    exc = WorkerCrashed("boom")
    assert isinstance(exc, ServeError)
    assert isinstance(TransientRunnerError("x"), ServeError)
