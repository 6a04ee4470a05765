"""Figure 5: accumulated scheduling overhead, ILAN normalized to baseline.

Paper result: ILAN's overhead is *lower* than the baseline's in four of
the seven benchmarks — molding to fewer threads shrinks synchronization
and steal traffic (most pronounced in CG) — while benchmarks that keep
all cores (Matmul) pay a predictable increase for configuration selection
and PTT updates.
"""

from repro.exp.figures import figure5
from repro.exp.report import render_overheads


def test_fig5_scheduling_overhead(runner):
    rows = figure5(runner)
    print()
    print(render_overheads(
        "Figure 5: accumulated scheduling overhead (ILAN / baseline, lower is better)", rows
    ))
    print("paper: ILAN lower in 4/7; biggest reduction in CG; increase for Matmul")

    by_bench = {r.benchmark: r for r in rows}
    lower = sum(1 for r in rows if r.normalized < 1.0)
    # the molded benchmarks shrink their synchronization footprint
    assert by_bench["cg"].normalized < 1.0
    assert by_bench["sp"].normalized < 1.0
    assert lower >= 3, f"ILAN should reduce overhead for several benchmarks, got {lower}/7"
    # overheads stay a small fraction of runtime for every benchmark
    for r in rows:
        base_time = runner.cell(r.benchmark, "baseline").summary().mean
        assert r.baseline_overhead < 0.1 * base_time
