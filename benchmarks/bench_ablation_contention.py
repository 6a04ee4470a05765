"""Ablation: ILAN's gain as a function of the contention exponent gamma.

DESIGN.md's load-bearing substitution is the superlinear bandwidth
contention penalty ``(D/B)^(1+gamma)``: with gamma = 0 (ideal fair
sharing) running a memory-bound loop on fewer cores cannot finish sooner,
so moldability has nothing to exploit; as gamma grows, oversubscription
becomes actively harmful and ILAN's molding gain grows with it.  This
sweep verifies that monotone relationship on a synthetic memory-bound
irregular workload.
"""

from benchmarks.conftest import bench_config
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_synthetic

GAMMAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 30
    rows = []
    for gamma in GAMMAS:
        app = make_synthetic(
            name=f"sweep-gamma",
            mem_frac=0.8,
            blocked_fraction=0.0,
            reuse=0.1,
            gamma=gamma,
            timesteps=steps,
        )
        base = OpenMPRuntime(topo, scheduler="baseline", seed=0).run_application(app)
        ilan = OpenMPRuntime(topo, scheduler="ilan", seed=0).run_application(app)
        rows.append(
            (gamma, base.total_time / ilan.total_time, ilan.weighted_avg_threads)
        )
    return rows


def test_ablation_contention_exponent():
    rows = sweep()
    print("\nAblation: ILAN speedup vs contention exponent (synthetic, memory-bound)")
    print(f"{'gamma':>6} {'speedup':>9} {'avg threads':>12}")
    for gamma, sp, thr in rows:
        print(f"{gamma:>6.1f} {sp:>9.3f} {thr:>12.1f}")
    speedups = [sp for _, sp, _ in rows]
    threads = [thr for _, _, thr in rows]
    # fair sharing: no moldability win (ILAN ~ baseline)
    assert speedups[0] < 1.1
    # superlinear contention: the win grows with gamma...
    assert speedups[-1] > speedups[0] + 0.3
    assert speedups[-1] == max(speedups)
    # ...because ILAN molds the loop narrower and narrower
    assert threads[-1] < threads[0]
