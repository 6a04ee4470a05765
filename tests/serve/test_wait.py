"""The server-answered ``wait`` op, on one machine and on a fleet.

A ``wait`` is one request: the service holds the reply until the job is
terminal.  Two properties that a client-side poll loop did not have are
checked on both front ends:

* a ``wait`` whose ``timeout_s`` expires is answered with the record as
  it stands, so the client reads its reply and the connection stays in
  sync for the next request;
* a wire ``drain`` sent while a ``wait`` is pending finishes the job and
  answers that ``wait`` with the terminal record, and the drained
  snapshot conserves every job.

Each job here hangs until its deadline (a seeded ``deadline`` fault), so
it is reliably still running when the test acts on it.
"""

import asyncio

import pytest

from repro.exp.runner import ExperimentConfig
from repro.serve.client import ServiceClient
from repro.serve.faults import FaultKind, FaultPlan
from repro.serve.federation import FederationRouter, FederationService, ShardHandle
from repro.serve.protocol import JobRequest
from repro.serve.server import SchedulingService
from repro.topology.presets import dual_socket_small

TIMEOUT = 60  # hang guard

#: a job that hangs for its whole half-second deadline, then fails
HUNG = JobRequest(benchmark="matmul", timesteps=2, nodes=1, deadline_s=0.5)


def _service() -> SchedulingService:
    config = ExperimentConfig(seeds=1, timesteps=2, with_noise=False, jobs=1,
                              cache_dir=None)
    return SchedulingService(
        dual_socket_small(), config=config, workers=1,
        fault_plan=FaultPlan({FaultKind.DEADLINE_HANG: 1.0}, seed=0),
    )


def _front_end(kind: str):
    """A started-later front end and the services that run its jobs."""
    if kind == "service":
        service = _service()
        return service, [service]
    shards = [ShardHandle(f"shard-{i}", _service()) for i in range(2)]
    fleet = FederationService(FederationRouter(shards, seed=0))
    return fleet, [shard.service for shard in shards]


def _conserved(jobs: dict) -> bool:
    return jobs["submitted"] == (
        jobs["completed"] + jobs["failed"] + jobs["active"] + jobs["queued"]
        + jobs["evicted"]
    )


@pytest.mark.parametrize("kind", ["service", "fleet"])
def test_timed_out_wait_leaves_the_connection_in_sync(kind):
    async def run():
        front, _ = _front_end(kind)
        host, port = await front.start("127.0.0.1", 0)
        async with await ServiceClient.connect(host, port) as cli:
            job_id = await cli.submit(HUNG)
            with pytest.raises(asyncio.TimeoutError):
                await cli.wait(job_id, poll_interval=0, max_poll_interval=0,
                               timeout=0.05)
            # the next reply on this connection answers the next request
            pong = await cli.ping()
            assert pong["pong"] is True and "job" not in pong
            job = await cli.wait(job_id, timeout=TIMEOUT)
            assert job["job_id"] == job_id
            assert job["state"] == "failed"
            assert "DeadlineExceeded" in job["error"]
            await cli.drain()

    asyncio.run(run())


@pytest.mark.parametrize("kind", ["service", "fleet"])
def test_wire_drain_answers_a_pending_wait(kind):
    async def run():
        front, services = _front_end(kind)
        entered = asyncio.Event()
        for service in services:
            real_wait = service.wait

            async def wait(job_id, timeout=None, _real=real_wait):
                entered.set()
                return await _real(job_id, timeout)

            service.wait = wait
        host, port = await front.start("127.0.0.1", 0)
        async with await ServiceClient.connect(host, port) as waiter, \
                await ServiceClient.connect(host, port) as drainer:
            job_id = await waiter.submit(HUNG)
            pending = asyncio.create_task(waiter.wait(job_id))
            await asyncio.wait_for(entered.wait(), timeout=TIMEOUT)
            assert not pending.done()
            snapshot = await asyncio.wait_for(drainer.drain(), timeout=TIMEOUT)
            job = await asyncio.wait_for(pending, timeout=TIMEOUT)
            # drain is idempotent; sending it ends this connection too
            await waiter.drain()
        assert job["job_id"] == job_id
        assert job["state"] == "failed"
        assert "DeadlineExceeded" in job["error"]
        per_service = (
            [snapshot["jobs"]] if kind == "service"
            else [shard["jobs"] for shard in snapshot["shards"].values()]
        )
        assert sum(jobs["submitted"] for jobs in per_service) == 1
        assert all(_conserved(jobs) for jobs in per_service)
        assert all(jobs["active"] == jobs["queued"] == 0 for jobs in per_service)

    asyncio.run(run())
