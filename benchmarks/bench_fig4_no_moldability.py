"""Figure 4: ILAN without moldability (hierarchical scheduling only).

Paper result: locality alone is worth +7.9% on average; CG flips to a
-8.6% *loss* (strict placement fights its imbalance) and SP loses most of
its gain — isolating how much of ILAN's win is interference mitigation.
"""

from repro.exp.figures import PAPER_EXPECTATIONS, average_speedup, figure2, figure4
from repro.exp.report import render_speedups


def test_fig4_no_moldability(runner):
    rows = figure4(runner)
    print()
    print(render_speedups("Figure 4: ILAN without moldability vs baseline", rows))
    print(f"paper: avg {PAPER_EXPECTATIONS['fig4_avg']:.3f}, cg {PAPER_EXPECTATIONS['fig4_cg']:.3f}")

    by_bench = {r.benchmark: r for r in rows}
    ilan = {r.benchmark: r for r in figure2(runner)}

    # moldability is what wins on the contention-bound benchmarks: without
    # it SP collapses and CG loses its gain entirely
    assert by_bench["sp"].speedup < ilan["sp"].speedup - 0.2
    assert by_bench["cg"].speedup < 1.02
    assert by_bench["cg"].speedup < ilan["cg"].speedup
    # the locality-bound benchmarks keep (or slightly improve) their gains
    for name in ("ft", "bt", "lulesh"):
        assert by_bench[name].speedup > 1.0, name
        assert by_bench[name].speedup >= ilan[name].speedup - 0.02, name
    # hierarchical-only still wins on average, but less than full ILAN
    assert 1.0 < average_speedup(rows)
