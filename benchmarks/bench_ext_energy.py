"""Extension: energy-aware configuration selection (paper Section 3.5).

Runs a bandwidth-bound workload under ILAN optimising time, energy, and
energy-delay product.  Expected ordering: the time objective finds the
fastest configuration, the energy objective the most frugal one (narrower
— idle/uncore power makes width expensive), and EDP sits between.
"""

from benchmarks.conftest import bench_config
from repro.core.scheduler import IlanScheduler
from repro.energy import EnergyModel
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_synthetic


def sweep():
    cfg = bench_config()
    topo = zen4_9354()
    steps = cfg.timesteps or 25
    model = EnergyModel()
    app = make_synthetic(
        name="bandwidth", mem_frac=0.8, blocked_fraction=0.0, reuse=0.1,
        gamma=1.2, timesteps=steps, region_mib=512,
    )
    rows = []
    for objective in ("time", "energy", "edp"):
        sched = IlanScheduler(objective=objective, energy_model=model)
        res = OpenMPRuntime(topo, scheduler=sched, seed=0).run_application(app)
        cfg_settled = sched.controller("bandwidth.loop").settled_config
        rows.append(
            (objective, res.total_time, model.run_energy(res), cfg_settled.num_threads)
        )
    return rows


def test_ext_energy_objectives():
    rows = sweep()
    print("\nExtension: selection objective (bandwidth-bound synthetic)")
    print(f"{'objective':>9} {'time[s]':>9} {'energy[J]':>10} {'threads':>8}")
    for obj, t, e, thr in rows:
        print(f"{obj:>9} {t:>9.4f} {e:>10.2f} {thr:>8}")
    by = {obj: (t, e, thr) for obj, t, e, thr in rows}

    # the time objective is fastest; the energy objective is most frugal
    assert by["time"][0] <= min(v[0] for v in by.values()) + 1e-9
    assert by["energy"][1] <= min(v[1] for v in by.values()) + 1e-9
    # energy prefers narrower configurations than time
    assert by["energy"][2] <= by["time"][2]
    # EDP interpolates on width
    assert by["energy"][2] <= by["edp"][2] <= by["time"][2]
