"""perfbench's layer hooks still find their targets in ``src/``.

``perfbench/tracing.py`` attributes time to layers by wrapping a fixed
list of the program's callables from outside.  A renamed or moved target
fails ``install()``; a target that the program stops calling (a
function bound to a new name at import, say) leaves its hook silent and
its layer at zero.  These tests install the hooks in a fresh
interpreter: one checks the simulation targets are wrapped and runs one
traced application to check that every one of them sees its calls; the
other serves one traced job through a two-shard fleet over TCP, built as
the ``fleet-hot`` workload builds it, and checks every serving target
sees its calls.  They only read ``perfbench/`` (no bytecode is written
there).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing

tracing.install()

from repro.memory.access import ChunkAccess
from repro.runtime import executor
from repro.runtime.executor import TaskloopExecutor
from repro.runtime.runtime import OpenMPRuntime
from repro.sim.engine import Clock
from repro.sim.incremental import IncrementalInterference
from repro.topology.presets import tiny_two_node
from repro.workloads.registry import make_benchmark

targets = {
    "executor.chunk_access": executor.chunk_access,
    "ChunkAccess.commit": ChunkAccess.commit,
    "Clock.advance": Clock.advance,
    "IncrementalInterference.slowdowns": IncrementalInterference.slowdowns,
    "TaskloopExecutor.run": TaskloopExecutor.run,
}
wrapped = sorted(name for name, fn in targets.items() if hasattr(fn, "__wrapped__"))

tracer = tracing.TRACER
tracer.active = True
OpenMPRuntime(tiny_two_node(), "ilan", seed=1).run_application(
    make_benchmark("cg"), timesteps=2
)
tracer.active = False

fine = {}
for span in tracer.spans:
    for name, (calls, _) in (span.fine or {}).items():
        fine[name] = fine.get(name, 0) + calls
for name, (calls, _) in tracer.loose.items():
    fine[name] = fine.get(name, 0) + calls
tasks = sum((s.counts or {}).get("tasks", 0) for s in tracer.spans)
names = sorted({s.name for s in tracer.spans})
print(json.dumps({"wrapped": wrapped, "fine": fine, "tasks": tasks, "spans": names}))
"""


_SERVE_PROBE = """
import asyncio, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing

tracing.install()

from repro.exp.runner import ExperimentConfig
from repro.serve.client import ServiceClient
from repro.serve.federation.router import FederationRouter
from repro.serve.federation.service import FederationService
from repro.serve.federation.shard import build_shards
from repro.serve.protocol import JobRequest
from repro.topology.presets import tiny_two_node


async def serve_one_job():
    config = ExperimentConfig(seeds=1, timesteps=2, with_noise=False, jobs=1, cache_dir=None)
    shards = build_shards(2, tiny_two_node, config=config)
    for shard in shards:
        tracing.tag_service(shard.service, shard.instance_id)
    fleet = FederationService(FederationRouter(shards, seed=0))
    host, port = await fleet.start("127.0.0.1", 0)
    client = await ServiceClient.connect(host, port)
    job_id = await client.submit(JobRequest(benchmark="matmul", timesteps=2))
    record = await client.wait(job_id, timeout=120)
    # the wait is one request and polls nothing; one explicit status call
    # keeps the status and detector-pump hooks exercised
    await client.status(job_id)
    await client.close()
    await fleet.drain()
    return record["state"]


tracing.TRACER.active = True
state = asyncio.run(serve_one_job())
tracing.TRACER.active = False
calls = {}
for span in tracing.TRACER.spans:
    calls[span.name] = calls.get(span.name, 0) + 1
print(json.dumps({"state": state, "calls": calls}))
"""


def _probe(source: str) -> dict:
    """Run ``source`` against ``src/`` and ``perfbench/``; its last line."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", source, str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_perfbench_hooks_wrap_and_see_the_simulation():
    report = _probe(_PROBE)
    assert report["wrapped"] == sorted(
        [
            "executor.chunk_access",
            "ChunkAccess.commit",
            "Clock.advance",
            "IncrementalInterference.slowdowns",
            "TaskloopExecutor.run",
        ]
    )
    assert {"runtime.run", "runtime.taskloop"} <= set(report["spans"])
    tasks = report["tasks"]
    assert tasks > 0
    fine = report["fine"]
    # one chunk_access at each start and one commit at each completion
    assert fine.get("memory.access") == 2 * tasks
    assert fine.get("sim.step", 0) > 0
    assert fine.get("slowdown", 0) >= fine["sim.step"]


def test_perfbench_hooks_see_a_served_fleet_job():
    report = _probe(_SERVE_PROBE)
    assert report["state"] == "completed"
    calls = report["calls"]
    for name in (
        "serve.client.submit",
        "serve.client.status",
        "serve.submit",
        "serve.lease_wait",
        "federation.submit",
        "federation.status",
        "federation.pump",
    ):
        assert calls.get(name, 0) >= 1, (name, calls)
    # the wait itself made no status call
    assert calls["serve.client.status"] == 1, calls
