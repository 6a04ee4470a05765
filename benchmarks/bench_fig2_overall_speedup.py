"""Figure 2: normalized speedup of ILAN vs the default scheduler.

Paper result (64-core Zen 4): ILAN outperforms the LLVM default scheduler
on six of seven benchmarks — average +13.2%, maximum +45.8% (SP) — with a
slight slowdown on the compute-bound Matmul kernel.
"""

from repro.exp.figures import PAPER_EXPECTATIONS, average_speedup, figure2
from repro.exp.report import render_speedups


def test_fig2_overall_speedup(runner):
    rows = figure2(runner)
    print()
    print(render_speedups("Figure 2: ILAN vs baseline (speedup, higher is better)", rows))
    print(f"paper: avg {PAPER_EXPECTATIONS['fig2_avg']:.3f}, "
          f"sp {PAPER_EXPECTATIONS['fig2_speedup']['sp']:.3f}, "
          f"matmul {PAPER_EXPECTATIONS['fig2_speedup']['matmul']:.3f}")

    by_bench = {r.benchmark: r for r in rows}
    # shape assertions: who wins and the headline ordering
    assert average_speedup(rows) > 1.0, "ILAN must win on average"
    assert by_bench["sp"].speedup == max(r.speedup for r in rows), "SP is the biggest win"
    assert by_bench["matmul"].speedup == min(r.speedup for r in rows), "Matmul is the worst case"
    assert by_bench["matmul"].speedup < 1.02, "Matmul shows no real ILAN gain"
    for name in ("ft", "bt", "cg", "sp", "lulesh"):
        assert by_bench[name].speedup > 1.0, f"{name} must benefit from ILAN"
