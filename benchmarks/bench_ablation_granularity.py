"""Ablation: the thread-count granularity ``g`` of Algorithm 1.

The paper sets ``g`` to the NUMA node size (8 on the Zen 4 platform) so
configurations always use whole nodes, and notes other values may suit
other platforms.  This sweep runs SP — the benchmark most sensitive to
the chosen width — with ``g`` in {4, 8, 16, 32}: finer granularity finds
widths closer to the optimum but pays more exploration; coarser
granularity explores less but can miss the optimum.
"""

from benchmarks.conftest import bench_config
from repro.core.scheduler import IlanScheduler
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_sp

GRANULARITIES = (4, 8, 16, 32)


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 30
    seeds = max(2, cfg.seeds // 3)
    app = make_sp(timesteps=steps)
    base = [
        OpenMPRuntime(topo, scheduler="baseline", seed=s).run_application(app).total_time
        for s in range(seeds)
    ]
    base_mean = sum(base) / len(base)
    rows = []
    for g in GRANULARITIES:
        results = [
            OpenMPRuntime(
                topo, scheduler=IlanScheduler(granularity=g), seed=s
            ).run_application(app)
            for s in range(seeds)
        ]
        mean = sum(r.total_time for r in results) / len(results)
        threads = sum(r.weighted_avg_threads for r in results) / len(results)
        rows.append((g, base_mean / mean, threads))
    return rows


def test_ablation_granularity():
    rows = sweep()
    print("\nAblation: thread-count granularity g on SP")
    print(f"{'g':>4} {'speedup':>9} {'avg threads':>12}")
    for g, sp, thr in rows:
        print(f"{g:>4} {sp:>9.3f} {thr:>12.1f}")
    speedups = {g: sp for g, sp, _ in rows}
    # every granularity must still beat the contention-crushed baseline
    assert all(sp > 1.1 for sp in speedups.values())
    # the paper's node-size granularity is competitive with the best
    # (finer g can edge ahead by splitting nodes, at higher exploration
    # cost; see Section 3.5's discussion of the choice)
    assert speedups[8] >= 0.82 * max(speedups.values())
