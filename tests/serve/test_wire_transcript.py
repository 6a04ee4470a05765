"""Every wire reply of the service and the fleet, pinned byte for byte.

One scripted session per front end — a :class:`SchedulingService` and a
two-shard :class:`FederationService` — runs over a real socket: ping,
submit, status of the finished job, metrics, membership, an unknown op,
a malformed line, a malformed job, an unknown job id and drain.  Each
reply line, exactly as the server wrote it (field order included), is
compared with ``fixtures/wire_transcript.txt``.

Nothing is masked.  Every service reads a step clock (each call moves
it on by half a second), jobs run uncached with no noise, and the one
job of each session finishes before the next request is sent, so the
time fields, results and counters are functions of the script alone.

Regenerate only when a reply is meant to change::

    PYTHONPATH=src python tests/serve/test_wire_transcript.py --write
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

from repro.exp.runner import ExperimentConfig
from repro.serve.federation import FederationRouter, FederationService, ShardHandle
from repro.serve.server import SchedulingService
from repro.topology.presets import tiny_two_node

FIXTURE = Path(__file__).parent / "fixtures" / "wire_transcript.txt"
TIMEOUT = 60

JOB = {"benchmark": "matmul", "timesteps": 2, "nodes": 1, "tenant": "tenant-a"}


class StepClock:
    """A monotonic clock that advances half a second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.5
        return self.now


def _service() -> SchedulingService:
    config = ExperimentConfig(
        seeds=1, timesteps=2, with_noise=False, jobs=1, cache_dir=None
    )
    return SchedulingService(tiny_two_node(), config=config, clock=StepClock())


def _line(message: dict) -> str:
    return json.dumps(message, separators=(",", ":"))


async def _session(start, wait_terminal) -> list[str]:
    """Drive one front end through the script; returns the transcript."""
    host, port = await start()
    reader, writer = await asyncio.open_connection(host, port)
    lines: list[str] = []

    async def send(raw: str) -> dict:
        writer.write(raw.encode() + b"\n")
        await writer.drain()
        reply = await asyncio.wait_for(reader.readline(), timeout=TIMEOUT)
        lines.append(f"> {raw}")
        lines.append(f"< {reply.decode().rstrip(chr(10))}")
        return json.loads(reply)

    try:
        await send('{"op":"ping"}')
        submitted = await send(_line({"op": "submit", "job": JOB}))
        job_id = submitted["job_id"]
        await asyncio.wait_for(wait_terminal(job_id), timeout=TIMEOUT)
        await send(_line({"op": "status", "job_id": job_id}))
        await send('{"op":"metrics"}')
        await send('{"op":"membership"}')
        await send('{"op":"frobnicate"}')
        await send("this is not json")
        await send('{"op":"submit","job":{"benchmark":"matmul","seeds":0}}')
        await send('{"op":"status","job_id":"job-99999"}')
        await send('{"op":"drain"}')
    finally:
        writer.close()
    return lines


async def _until(predicate) -> None:
    while not predicate():
        await asyncio.sleep(0.01)


async def _service_session() -> list[str]:
    service = _service()

    async def wait_terminal(job_id: str) -> None:
        await _until(lambda: service.status(job_id).state.terminal)

    return await _session(lambda: service.start("127.0.0.1", 0), wait_terminal)


async def _fleet_session() -> list[str]:
    shards = [ShardHandle(f"shard-{i}", _service()) for i in range(2)]
    fleet = FederationService(FederationRouter(shards, seed=0))

    def terminal(fed_id: str) -> bool:
        job = fleet.router.jobs[fed_id]
        record = fleet.router.instances[job.shard_id].service.records[job.local_job_id]
        return record.state.terminal

    async def wait_terminal(fed_id: str) -> None:
        await _until(lambda: terminal(fed_id))

    return await _session(lambda: fleet.start("127.0.0.1", 0), wait_terminal)


def transcript() -> str:
    """Both sessions as one text: a header line, then request/reply pairs."""
    out = ["# one machine"]
    out += asyncio.run(_service_session())
    out += ["# two-shard fleet"]
    out += asyncio.run(_fleet_session())
    return "\n".join(out) + "\n"


def test_wire_replies_match_the_pinned_transcript():
    expected = FIXTURE.read_text().splitlines()
    actual = transcript().splitlines()
    for i, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, f"transcript line {i + 1} differs"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    if "--write" not in sys.argv:
        sys.exit("refusing to overwrite the fixture without --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(transcript())
    print(f"wrote {FIXTURE}")
