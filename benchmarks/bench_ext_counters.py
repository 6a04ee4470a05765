"""Extension: counter-driven exploration (the paper's proposed future work).

"More performance statistics can also reduce the exploration overhead by
utilizing the additional information to arrive at the optimal
configuration more quickly" (Section 3.5).  This bench quantifies that on
the two extremes: the compute-bound Matmul (counters skip the search
entirely) and the contention-bound SP (counters must NOT skip it, or the
moldability win would be lost).
"""

from benchmarks.conftest import bench_config
from repro.core.scheduler import IlanScheduler
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_matmul, make_sp


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 30
    rows = []
    for name, factory in (("matmul", make_matmul), ("sp", make_sp)):
        app = factory(timesteps=steps)
        for use_counters in (False, True):
            sched = IlanScheduler(use_counters=use_counters)
            res = OpenMPRuntime(topo, scheduler=sched, seed=0).run_application(app)
            widths = len({r.num_threads for r in res.taskloops})
            rows.append((name, use_counters, res.total_time, widths,
                         res.weighted_avg_threads))
    return rows


def test_ext_counter_guided_exploration():
    rows = sweep()
    print("\nExtension: counter-guided exploration")
    print(f"{'bench':>8} {'counters':>9} {'time[s]':>9} {'widths':>7} {'avg thr':>8}")
    for name, uc, t, widths, thr in rows:
        print(f"{name:>8} {str(uc):>9} {t:>9.4f} {widths:>7} {thr:>8.1f}")
    by = {(name, uc): (t, widths, thr) for name, uc, t, widths, thr in rows}

    # Matmul: the shortcut removes all narrow probes and speeds up the run
    assert by[("matmul", True)][1] == 1
    assert by[("matmul", False)][1] > 1
    assert by[("matmul", True)][0] < by[("matmul", False)][0]
    # SP: saturation keeps the search alive — molding still happens and the
    # counter variant stays within noise of plain ILAN
    assert by[("sp", True)][2] < 48
    assert by[("sp", True)][0] < by[("sp", False)][0] * 1.05
