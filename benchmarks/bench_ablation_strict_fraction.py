"""Ablation: the NUMA-strict fraction of the hierarchical distribution.

The paper leaves the stealable portion "implementation-specific"; this
sweep shows the trade-off on CG (imbalanced, so it needs the stealable
tail for load balancing) — locality protection vs balancing freedom.
"""

from benchmarks.conftest import bench_config
from repro.core.scheduler import IlanScheduler
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_cg

FRACTIONS = (0.0, 0.25, 0.55, 0.8, 1.0)


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 30
    seeds = max(2, cfg.seeds // 3)
    app = make_cg(timesteps=steps)
    base = [
        OpenMPRuntime(topo, scheduler="baseline", seed=s).run_application(app).total_time
        for s in range(seeds)
    ]
    base_mean = sum(base) / len(base)
    rows = []
    for frac in FRACTIONS:
        times = [
            OpenMPRuntime(
                topo, scheduler=IlanScheduler(strict_fraction=frac), seed=s
            ).run_application(app).total_time
            for s in range(seeds)
        ]
        rows.append((frac, base_mean / (sum(times) / len(times))))
    return rows


def test_ablation_strict_fraction():
    rows = sweep()
    print("\nAblation: NUMA-strict fraction on CG (speedup vs baseline)")
    print(f"{'strict_fraction':>16} {'speedup':>9}")
    for frac, sp in rows:
        print(f"{frac:>16.2f} {sp:>9.3f}")
    by_frac = dict(rows)
    # a fully strict distribution forfeits load balancing on the
    # imbalanced CG: it must not beat the default (balancing-friendly)
    # fraction used by the library
    assert by_frac[1.0] <= by_frac[0.55] + 0.02
    # every setting keeps ILAN functional (no pathological collapse)
    assert all(sp > 0.7 for _, sp in rows)
