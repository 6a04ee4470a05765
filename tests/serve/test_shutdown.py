"""Shutdown: drain, then a final atomic metrics snapshot.

The contract under test (see ``repro.serve.__main__``): SIGTERM, SIGINT
or a wire ``drain`` drain the service or the fleet — admitted jobs
finish, new submissions are rejected — the process exits 0, and
``--snapshot-out`` then persists one final JSON snapshot via an atomic
tmp-file + rename write.  The snapshot must *conserve*: every submitted
job is accounted as completed or failed (or, on a fleet shard, evicted
to another), with nothing left active or queued after a drain.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exp.runner import ExperimentConfig
from repro.serve.client import ServiceClient
from repro.serve.protocol import JobRequest
from repro.serve.server import SchedulingService
from repro.topology.presets import dual_socket_small

TIMEOUT = 60


def _service(**kwargs):
    kwargs.setdefault(
        "config",
        ExperimentConfig(seeds=1, timesteps=3, with_noise=False, jobs=1, cache_dir=None),
    )
    return SchedulingService(dual_socket_small(), **kwargs)


def assert_conserves(snapshot: dict) -> None:
    """The job ledger balances and nothing is in flight, on the one
    machine or on every shard of a fleet."""
    machines = snapshot["shards"].values() if "router" in snapshot else [snapshot]
    for machine in machines:
        jobs = machine["jobs"]
        assert jobs["submitted"] == (
            jobs["completed"] + jobs["failed"] + jobs["active"] + jobs["queued"]
            + jobs["evicted"]
        )
        assert jobs["active"] == 0
        assert jobs["queued"] == 0


class TestPersistSnapshot:
    def test_drained_snapshot_conserves_job_counts(self, tmp_path):
        async def scenario():
            service = _service()
            await service.start()
            for _ in range(4):
                service.submit(JobRequest(benchmark="matmul", timesteps=3, nodes=1))
            await service.drain()
            return service.persist_snapshot(tmp_path / "metrics.json")

        out = asyncio.run(scenario())
        snapshot = json.loads(out.read_text())
        assert_conserves(snapshot)
        assert snapshot["jobs"]["submitted"] == 4
        assert snapshot["jobs"]["completed"] == 4
        assert snapshot["service"]["draining"] is True

    def test_persist_is_atomic_no_temp_debris(self, tmp_path):
        async def scenario():
            service = _service()
            await service.start()
            await service.drain()
            return service.persist_snapshot(tmp_path / "metrics.json")

        out = asyncio.run(scenario())
        assert json.loads(out.read_text())  # parseable, non-empty
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


SERVE_MODES = pytest.mark.parametrize(
    "argv", [[], ["--shards", "2"]], ids=["one-machine", "fleet"]
)


def _serve(snap, argv):
    """A live ``python -m repro.serve`` and its port, once it listens."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--machine", "tiny",
         "--port", "0", "--no-noise", "--no-cache", "--timesteps", "2",
         "--snapshot-out", str(snap), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    deadline = time.monotonic() + TIMEOUT
    for line in proc.stdout:
        if "listening on" in line:
            return proc, int(line.split()[2].rstrip(";").rsplit(":", 1)[1])
        assert time.monotonic() < deadline, "server never came up"
    proc.kill()
    raise AssertionError(f"server exited before listening: {proc.wait()}")


def _finish(proc, snap):
    """Wait for the exit; it must be clean and leave a conserving snapshot."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, out
    assert "draining" in out
    assert snap.exists(), out
    snapshot = json.loads(snap.read_text())
    assert_conserves(snapshot)
    return snapshot


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestSigterm:
    @SERVE_MODES
    def test_sigterm_drains_and_persists_snapshot(self, tmp_path, argv):
        """A live ``python -m repro.serve`` process, SIGTERMed, exits 0
        after writing a conserving snapshot."""
        snap = tmp_path / "final.json"
        proc, _ = _serve(snap, argv)
        proc.send_signal(signal.SIGTERM)
        _finish(proc, snap)


class TestWireDrain:
    @SERVE_MODES
    def test_wire_drain_ends_the_process(self, tmp_path, argv):
        """A ``drain`` sent over the wire ends the process as a signal
        does: the admitted job finishes, exit 0, conserving snapshot."""
        snap = tmp_path / "final.json"
        proc, port = _serve(snap, argv)

        async def drive():
            async with await ServiceClient.connect("127.0.0.1", port) as cli:
                await cli.submit(JobRequest(benchmark="matmul", timesteps=2, nodes=1))
                return await asyncio.wait_for(cli.drain(), timeout=TIMEOUT)

        try:
            asyncio.run(drive())
        except BaseException:
            proc.kill()
            raise
        snapshot = _finish(proc, snap)
        completed = (
            snapshot["router"]["job_states"]["completed"]
            if "router" in snapshot
            else snapshot["jobs"]["completed"]
        )
        assert completed == 1
