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

A second test holds ``wait`` to the same bytes without a fixture of its
own: on both front ends, a ``wait`` for the finished job, for an unknown
id or for an id that is not a string must reply exactly as ``status``
does, and a bad ``timeout_s`` is a ``bad_request``.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path

import pytest

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


async def _wait_session(start, wait_terminal) -> list[str]:
    """Status, then wait, of the finished job, of an unknown id and of an
    id that is not a string; then waits with each kind of bad
    ``timeout_s``.  Returns the reply lines."""
    host, port = await start()
    reader, writer = await asyncio.open_connection(host, port)

    async def send(message: dict) -> str:
        writer.write(_line(message).encode() + b"\n")
        await writer.drain()
        reply = await asyncio.wait_for(reader.readline(), timeout=TIMEOUT)
        return reply.decode().rstrip("\n")

    try:
        job_id = json.loads(await send({"op": "submit", "job": JOB}))["job_id"]
        await asyncio.wait_for(wait_terminal(job_id), timeout=TIMEOUT)
        replies = []
        for known in (job_id, "job-99999", [job_id]):
            replies.append(await send({"op": "status", "job_id": known}))
            replies.append(await send({"op": "wait", "job_id": known}))
            replies.append(await send({"op": "wait", "job_id": known, "timeout_s": 5}))
        for bad in (0, -1, "5", True, math.inf, math.nan):
            replies.append(
                await send({"op": "wait", "job_id": job_id, "timeout_s": bad})
            )
        await send({"op": "drain"})
    finally:
        writer.close()
    return replies


async def _service_session(session=_session) -> list[str]:
    service = _service()
    return await session(lambda: service.start("127.0.0.1", 0), service.wait)


async def _fleet_session(session=_session) -> list[str]:
    shards = [ShardHandle(f"shard-{i}", _service()) for i in range(2)]
    fleet = FederationService(FederationRouter(shards, seed=0))
    return await session(lambda: fleet.start("127.0.0.1", 0), fleet.router.wait)


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


@pytest.mark.parametrize("front_end", [_service_session, _fleet_session])
def test_wait_replies_exactly_as_status_does(front_end):
    replies = asyncio.run(front_end(_wait_session))
    finished, unknown, malformed, bad = (
        replies[:3], replies[3:6], replies[6:9], replies[9:]
    )
    assert json.loads(finished[0])["job"]["state"] == "completed"
    assert finished[1] == finished[0] and finished[2] == finished[0]
    assert unknown[0] == (
        '{"ok":false,"error":{"code":"bad_request","message":"unknown job \'job-99999\'"}}'
    )
    assert unknown[1] == unknown[0] and unknown[2] == unknown[0]
    error = json.loads(malformed[0])["error"]
    assert error["code"] == "bad_request"
    assert error["message"].startswith("'job_id' must be a string")
    assert malformed[1] == malformed[0] and malformed[2] == malformed[0]
    for line in bad:
        error = json.loads(line)["error"]
        assert error["code"] == "bad_request"
        assert error["message"].startswith("'timeout_s' must be a positive finite number")


if __name__ == "__main__":
    if "--write" not in sys.argv:
        sys.exit("refusing to overwrite the fixture without --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(transcript())
    print(f"wrote {FIXTURE}")
