"""perfbench's layer hooks still find their targets in ``src/``.

``perfbench/tracing.py`` attributes time to layers by wrapping a fixed
list of the program's callables from outside.  A renamed or moved target
fails ``install()``; a target that the program stops calling (a
function bound to a new name at import, say) leaves its hook silent and
its layer at zero.  This test installs the hooks in a fresh interpreter,
checks the simulation targets are wrapped, and runs one traced
application to check that every one of them sees its calls.  It only
reads ``perfbench/`` (no bytecode is written there).
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


def test_perfbench_hooks_wrap_and_see_the_simulation():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
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
