"""Extension: exploration amortization — how many encounters ILAN needs.

Section 3.2: "The exploratory approach necessitates that taskloops within
the application execute numerous times, to cover the cost of exploring
while benefiting from the optimal configuration."  This bench sweeps the
application's outer iteration count on SP (large moldability win, so the
break-even is visible): with very few encounters the exploration probes
dominate and ILAN can lose to the baseline; the gain then grows towards
its asymptote as the settled configuration amortises the search.
"""

from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import zen4_9354
from repro.workloads import make_sp

TIMESTEPS = (3, 6, 12, 25, 50)


def sweep():
    topo = zen4_9354()
    rows = []
    for steps in TIMESTEPS:
        app = make_sp(timesteps=steps)
        base = OpenMPRuntime(topo, scheduler="baseline", seed=0).run_application(app)
        ilan = OpenMPRuntime(topo, scheduler="ilan", seed=0).run_application(app)
        rows.append((steps, base.total_time / ilan.total_time))
    return rows


def test_ext_exploration_amortization():
    rows = sweep()
    print("\nExtension: ILAN speedup on SP vs number of outer iterations")
    print(f"{'timesteps':>10} {'speedup':>9}")
    for steps, sp in rows:
        print(f"{steps:>10} {sp:>9.3f}")
    speedups = [sp for _, sp in rows]
    # the gain grows with the iteration count (amortization)...
    assert speedups[-1] > speedups[0]
    # ...approaching its asymptote: the last two points are close
    assert abs(speedups[-1] - speedups[-2]) < 0.2 * speedups[-1]
    # and at paper-like scale the moldability win is substantial
    assert speedups[-1] > 1.2
