"""Extension: the OpenMP ``affinity`` clause vs ILAN (paper Section 3.4).

The paper argues ILAN "builds upon the locality-awareness enabled by
affinity and augments it with adaptivity and automation".  This bench
makes the claim measurable on the locality-sensitive BT model: perfect
affinity hints (placement only, honoured by an otherwise default runtime)
recover part of the baseline's locality loss; ILAN's enforced hierarchy
recovers more; full ILAN adds moldability on top.
"""

from benchmarks.conftest import bench_config
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_bt

SCHEDULERS = ("baseline", "affinity-hint", "ilan-nomold", "ilan")


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 30
    seeds = max(2, cfg.seeds // 3)
    app = make_bt(timesteps=steps)
    rows = []
    for sched in SCHEDULERS:
        times = [
            OpenMPRuntime(topo, scheduler=sched, seed=s).run_application(app).total_time
            for s in range(seeds)
        ]
        rows.append((sched, sum(times) / len(times)))
    return rows


def test_ext_affinity_clause():
    rows = sweep()
    base = rows[0][1]
    print("\nExtension: affinity hints vs enforced hierarchy (BT)")
    print(f"{'scheduler':>14} {'time[s]':>9} {'speedup':>8}")
    for name, t in rows:
        print(f"{name:>14} {t:>9.4f} {base / t:>8.3f}")
    by = dict(rows)

    # hints help over the topology-blind default...
    assert by["affinity-hint"] < by["baseline"]
    # ...but enforcement (hierarchical stealing + strictness) helps more
    assert by["ilan-nomold"] < by["affinity-hint"] * 1.02
