"""Ablation: page placement policy (first-touch vs interleave vs bind).

The benchmarks rely on Linux first-touch placement, which is what lets
deterministic task distribution also determine *data* distribution.  This
sweep runs the locality-sensitive FT model with the region forced to
interleaved and single-node placement instead: interleaving wipes out
most of the hierarchical locality win; binding everything to one node
additionally concentrates all demand on one memory controller.
"""

import dataclasses

from benchmarks.conftest import bench_config
from repro.memory.allocator import AllocPolicy
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_ft
from repro.workloads.base import RegionSpec

POLICIES = (AllocPolicy.FIRST_TOUCH, AllocPolicy.INTERLEAVE, AllocPolicy.BIND)


def app_with_policy(policy, steps):
    app = make_ft(timesteps=steps)
    app.regions = [
        RegionSpec(r.name, r.num_bytes, policy=policy) for r in app.regions
    ]
    return app


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 30
    rows = []
    for policy in POLICIES:
        app = app_with_policy(policy, steps)
        base = OpenMPRuntime(topo, scheduler="baseline", seed=0).run_application(app)
        ilan = OpenMPRuntime(topo, scheduler="ilan", seed=0).run_application(app)
        rows.append((policy.value, base.total_time, ilan.total_time))
    return rows


def test_ablation_allocation_policy():
    rows = sweep()
    print("\nAblation: page placement policy on FT")
    print(f"{'policy':>12} {'baseline[s]':>12} {'ilan[s]':>10} {'speedup':>8}")
    for name, b, i in rows:
        print(f"{name:>12} {b:>12.4f} {i:>10.4f} {b / i:>8.3f}")
    by_policy = {name: (b, i) for name, b, i in rows}

    ft_b, ft_i = by_policy["first_touch"]
    il_b, il_i = by_policy["interleave"]
    bd_b, bd_i = by_policy["bind"]
    # binding all pages to one node serialises on one memory controller:
    # clearly the slowest placement for every scheduler
    assert bd_i > ft_i
    assert bd_i > il_i
    assert bd_b > ft_b
    # first-touch and interleave are both sane placements for FT: first
    # touch maximises locality, interleave maximises bandwidth spread, and
    # on this half-memory-bound code they land close together (the classic
    # trade-off; neither dominates by a large margin)
    assert abs(ft_i - il_i) < 0.2 * ft_i
