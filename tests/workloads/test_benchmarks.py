"""Tests for the seven paper-benchmark models."""

import pytest

from repro.errors import WorkloadError
from repro.runtime.context import RunContext
from repro.runtime.runtime import OpenMPRuntime
from repro.workloads.registry import BENCHMARKS, PAPER_ORDER, benchmark_names, make_benchmark


class TestRegistry:
    def test_all_seven_present(self):
        assert set(PAPER_ORDER) == {"ft", "bt", "cg", "lu", "sp", "matmul", "lulesh"}
        assert set(BENCHMARKS) == set(PAPER_ORDER)
        assert benchmark_names() == PAPER_ORDER

    def test_make_benchmark(self):
        app = make_benchmark("cg", timesteps=5)
        assert app.name == "cg"
        assert app.timesteps == 5

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            make_benchmark("hpl")


class TestModelCharacters:
    """The models must encode the paper's workload characterisation."""

    def test_cg_is_irregular_and_memory_bound(self):
        cg = make_benchmark("cg")
        spmv = next(lp for lp in cg.loops if lp.name == "spmv")
        assert spmv.pattern.blocked_fraction == 0.0
        assert spmv.mem_frac >= 0.7
        assert spmv.gamma >= 1.0
        assert spmv.imbalance == "clustered"  # spatially correlated row densities

    def test_sp_is_most_contention_sensitive(self):
        sp = make_benchmark("sp")
        others = [lp.gamma for name in ("ft", "bt", "lu", "matmul") for lp in make_benchmark(name).loops]
        assert min(lp.gamma for lp in sp.loops) > max(others)

    def test_matmul_is_compute_bound(self):
        mm = make_benchmark("matmul")
        (gemm,) = mm.loops
        assert gemm.mem_frac <= 0.1
        assert gemm.gamma == 0.0
        assert gemm.pattern.blocked_fraction == 1.0
        assert gemm.imbalance == "uniform"

    def test_ft_is_balanced(self):
        ft = make_benchmark("ft")
        assert all(lp.imbalance == "uniform" for lp in ft.loops)

    def test_bt_has_three_sweeps(self):
        bt = make_benchmark("bt")
        assert [lp.name for lp in bt.loops] == ["x_solve", "y_solve", "z_solve"]

    def test_lulesh_has_diverse_loops(self):
        lulesh = make_benchmark("lulesh")
        assert len(lulesh.loops) == 5
        patterns = {lp.pattern.blocked_fraction for lp in lulesh.loops}
        assert len(patterns) >= 2  # genuinely mixed characters

    def test_blocked_benchmarks_have_reuse(self):
        for name in ("ft", "bt", "lu", "matmul"):
            app = make_benchmark(name)
            assert max(lp.reuse for lp in app.loops) >= 0.15, name


class TestModelsRun:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_each_benchmark_runs_on_tiny_machine(self, tiny, name):
        app = make_benchmark(name, timesteps=2)
        result = OpenMPRuntime(tiny, scheduler="baseline", seed=0).run_application(app)
        assert result.total_time > 0
        assert len(result.taskloops) == 2 * len(app.loops)

    def test_setup_allocates_all_regions(self, tiny):
        for name in PAPER_ORDER:
            ctx = RunContext.create(tiny, seed=0)
            app = make_benchmark(name)
            app.setup(ctx)
            for r in app.regions:
                assert r.name in ctx.mem
