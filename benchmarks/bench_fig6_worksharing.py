"""Figure 6: ILAN and OpenMP static work-sharing vs the tasking baseline.

Paper result: ILAN beats work-sharing on most benchmarks; the notable
exception is FT, whose perfectly balanced loops make static scheduling
ideal (work-sharing beats both the baseline *and* ILAN there).  CG shows
the clearest tasking win: its inherent imbalance defeats static blocks.
"""

from repro.exp.figures import figure6
from repro.exp.report import render_figure6


def test_fig6_vs_worksharing(runner):
    rows = figure6(runner)
    print()
    print(render_figure6(rows))
    print("paper: work-sharing wins FT; ILAN wins CG (imbalanced) and SP")

    ilan = {r.benchmark: r for r in rows["ilan"]}
    ws = {r.benchmark: r for r in rows["worksharing"]}

    # FT: balanced workload -> static scheduling is at least as good as ILAN
    assert ws["ft"].speedup > 1.0
    assert ws["ft"].speedup >= ilan["ft"].speedup
    # CG: imbalanced workload -> static scheduling loses to the baseline,
    # while ILAN wins
    assert ws["cg"].speedup < 1.0
    assert ilan["cg"].speedup > 1.0
    assert ilan["cg"].speedup > ws["cg"].speedup
    # SP: contention-bound -> molding beats both alternatives decisively
    assert ilan["sp"].speedup > ws["sp"].speedup
