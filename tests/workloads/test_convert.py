"""Unit tests for the omp-for -> taskloop converter."""

import pytest

from repro.errors import WorkloadError
from repro.memory.access import AccessPattern
from repro.runtime.runtime import OpenMPRuntime
from repro.workloads.base import RegionSpec
from repro.workloads.convert import (
    ParallelFor,
    Program,
    Taskloop,
    convert_for_to_taskloop,
    program_to_application,
)


@pytest.fixture
def program():
    return Program(
        name="demo",
        regions=(RegionSpec("data", 32 * 1024 * 1024),),
        constructs=(
            ParallelFor(name="init", region="data", trip_count=4096, work_seconds=0.01),
            ParallelFor(
                name="stencil", region="data", trip_count=4096, work_seconds=0.02,
                mem_frac=0.6, pattern=AccessPattern.strided(0.8), reuse=0.4,
            ),
        ),
        timesteps=2,
    )


class TestConvert:
    def test_converts_all_fors(self, program):
        out = convert_for_to_taskloop(program, num_threads=64)
        assert out.is_taskloop_program()
        assert not program.is_taskloop_program()  # original untouched
        assert [c.name for c in out.constructs] == ["init", "stencil"]

    def test_num_tasks_sizing(self, program):
        out = convert_for_to_taskloop(program, num_threads=64, tasks_per_thread=2)
        assert all(c.num_tasks == 128 for c in out.constructs)

    def test_num_tasks_capped_by_trip_count(self):
        p = Program(
            name="small",
            regions=(RegionSpec("d", 1024 * 1024),),
            constructs=(ParallelFor(name="f", region="d", trip_count=10, work_seconds=0.01),),
        )
        out = convert_for_to_taskloop(p, num_threads=64)
        assert out.constructs[0].num_tasks == 10

    def test_workload_properties_preserved(self, program):
        out = convert_for_to_taskloop(program)
        stencil = out.constructs[1]
        assert stencil.mem_frac == 0.6
        assert stencil.pattern.blocked_fraction == 0.8
        assert stencil.reuse == 0.4

    def test_existing_taskloops_pass_through(self, program):
        once = convert_for_to_taskloop(program)
        twice = convert_for_to_taskloop(once)
        assert twice.constructs == once.constructs

    def test_validation(self, program):
        with pytest.raises(WorkloadError):
            convert_for_to_taskloop(program, num_threads=0)

    def test_parallel_for_validation(self):
        with pytest.raises(WorkloadError):
            ParallelFor(name="f", region="d", trip_count=0, work_seconds=0.01)


class TestLowering:
    def test_unconverted_program_rejected(self, program):
        with pytest.raises(WorkloadError):
            program_to_application(program)

    def test_lowered_app_runs(self, tiny, program):
        app = program_to_application(convert_for_to_taskloop(program, num_threads=4))
        result = OpenMPRuntime(tiny, scheduler="ilan", seed=0).run_application(app)
        assert len(result.taskloops) == 4  # 2 loops x 2 timesteps

    def test_lowered_fields(self, program):
        app = program_to_application(convert_for_to_taskloop(program, num_threads=8))
        assert app.name == "demo"
        assert [lp.name for lp in app.loops] == ["init", "stencil"]
        assert app.loops[0].total_iters == 4096

    def test_program_kind_predicates(self, program):
        assert not program.is_taskloop_program()
        converted = convert_for_to_taskloop(program)
        assert converted.is_taskloop_program()
        mixed = Program(
            name="m",
            regions=program.regions,
            constructs=(program.constructs[0], converted.constructs[1]),
        )
        assert not mixed.is_taskloop_program()
