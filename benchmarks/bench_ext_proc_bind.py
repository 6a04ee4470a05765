"""Extension: manual OpenMP affinity (proc_bind) vs ILAN.

The paper motivates ILAN by noting the standard's ``close``/``spread``
policies "only provide coarse guidance for thread placement, without
consideration of underlying data locality or interference aspects".  This
bench makes that concrete on SP: a manually halved thread team (the best a
programmer could do knowing SP saturates memory) placed close or spread,
against ILAN finding the configuration automatically per taskloop.
"""

from benchmarks.conftest import bench_config
from repro.runtime.runtime import OpenMPRuntime
from repro.runtime.schedulers.baseline import BaselineScheduler
from repro.topology.presets import zen4_9354
from repro.workloads import make_sp


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 30
    app = make_sp(timesteps=steps)
    rows = []
    rows.append(("default-64", OpenMPRuntime(topo, scheduler="baseline", seed=0)
                 .run_application(app).total_time))
    for bind in ("close", "spread"):
        sched = BaselineScheduler(num_threads=32, proc_bind=bind)
        rows.append((f"32-{bind}", OpenMPRuntime(topo, scheduler=sched, seed=0)
                     .run_application(app).total_time))
    rows.append(("ilan", OpenMPRuntime(topo, scheduler="ilan", seed=0)
                 .run_application(app).total_time))
    return rows


def test_ext_proc_bind_vs_ilan():
    rows = sweep()
    base = rows[0][1]
    print("\nExtension: manual affinity vs ILAN on SP")
    print(f"{'config':>12} {'time[s]':>9} {'speedup':>8}")
    for name, t in rows:
        print(f"{name:>12} {t:>9.4f} {base / t:>8.3f}")
    by = dict(rows)

    # a hand-reduced team already beats the oversubscribed default...
    assert by["32-spread"] < by["default-64"]
    # ...and spreading it across memory controllers beats packing it
    assert by["32-spread"] < by["32-close"]
    # ILAN beats the default and the packed manual configuration without
    # any hints.  The hand-tuned *spread* team can stay ahead: it splits
    # nodes, which lowers per-node congestion — the trade-off the paper
    # discusses in Section 3.5 when it fixes g to whole NUMA nodes for
    # locality (and it needs a programmer who already knows SP's optimal
    # width, which is exactly what ILAN discovers automatically).
    assert by["ilan"] < by["default-64"]
    assert by["ilan"] < by["32-close"] * 1.05
