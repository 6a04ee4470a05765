"""Dynamic asymmetry end to end, on the two tuned misbehaviour patterns.

A persistent single-node DVFS step and transient core-offline outages,
each pinned to the seed EXPERIMENTS.md reports, run the synthetic app on
the 16-core machine for 60 timesteps.  For both patterns:

* replaying the same (seed, asym seed) pair is byte-identical, down to
  the per-taskloop elapsed times and the timeline's episode counters;
* the production engine and the reference oracle agree bit for bit under
  live speed mutation and core offlining;
* the timeline fired;
* ILAN with drift re-exploration (``ilan-adaptive``) re-explores at least
  once, frozen-PTT ``ilan`` never does, and the adaptive makespan is the
  lower one.
"""

import json

import pytest

from repro.interference.timeline import AsymmetrySpec
from repro.runtime.reference import ReferenceRuntime
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import dual_socket_small
from repro.workloads.synthetic import make_synthetic

TIMESTEPS = 60

PATTERNS = {
    "dvfs-step": (
        AsymmetrySpec(dvfs_interval=0.05, dvfs_duration=1000.0,
                      dvfs_low=0.15, dvfs_high=0.2, dvfs_max_nodes=1),
        0,
    ),
    "core-offline": (
        AsymmetrySpec(offline_interval=0.3, offline_duration=1.0,
                      max_offline_fraction=0.2),
        3,
    ),
}


def _run(scheduler, spec, seed, runtime_type=OpenMPRuntime):
    """One asymmetric run, reduced to a canonical report."""
    app = make_synthetic(work_seconds=0.05, mem_frac=0.6, gamma=0.8,
                         num_tasks=32, total_iters=128, region_mib=32,
                         timesteps=TIMESTEPS)
    runtime = runtime_type(dual_socket_small(), scheduler, seed=seed,
                           asym=spec, asym_seed=100 + seed)
    result = runtime.run_application(app)
    timeline = runtime.last_ctx.asym
    controllers = getattr(runtime.scheduler, "_controllers", {})
    return {
        "total_time": result.total_time.hex(),
        "taskloops": [tl.elapsed.hex() for tl in result.taskloops],
        "episodes": {
            "dvfs": timeline.dvfs_episodes,
            "throttle": timeline.throttle_episodes,
            "cotenant": timeline.cotenant_episodes,
            "offline": timeline.offline_episodes,
        },
        "reexplorations": sum(getattr(c, "reexplorations", 0)
                              for c in controllers.values()),
    }


def _canonical(report):
    return json.dumps(report, sort_keys=True).encode()


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_adaptive_ilan_recovers_from_asymmetry(pattern):
    spec, seed = PATTERNS[pattern]
    frozen = _run("ilan", spec, seed)
    adaptive = _run("ilan-adaptive", spec, seed)

    assert _canonical(_run("ilan-adaptive", spec, seed)) == _canonical(adaptive)
    oracle = _run("ilan-adaptive", spec, seed, runtime_type=ReferenceRuntime)
    assert _canonical(oracle) == _canonical(adaptive)

    assert sum(adaptive["episodes"].values()) >= 1, adaptive["episodes"]
    assert adaptive["reexplorations"] >= 1
    assert frozen["reexplorations"] == 0
    assert (float.fromhex(adaptive["total_time"])
            < float.fromhex(frozen["total_time"]))
