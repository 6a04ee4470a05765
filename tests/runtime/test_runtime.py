"""Integration tests for the OpenMPRuntime facade."""

import pytest

from repro.errors import RuntimeModelError
from repro.interference.noise import NoiseParams
from repro.runtime.overhead import COMPONENTS
from repro.runtime.runtime import OpenMPRuntime
from repro.workloads.synthetic import make_synthetic


@pytest.fixture
def app():
    return make_synthetic(timesteps=3, num_tasks=16, total_iters=64, region_mib=32)


class TestRunApplication:
    def test_baseline_runs(self, tiny, app):
        result = OpenMPRuntime(tiny, scheduler="baseline", seed=0).run_application(app)
        assert result.app_name == app.name
        assert result.scheduler == "baseline"
        assert result.total_time > 0
        assert len(result.taskloops) == 3  # one loop x 3 timesteps

    def test_all_schedulers_run(self, tiny, app):
        for name in ("baseline", "worksharing", "ilan", "ilan-nomold"):
            result = OpenMPRuntime(tiny, scheduler=name, seed=0).run_application(app)
            assert result.taskloops, name
            # work sharing runs one block per thread; tasking runs num_tasks
            expected = 4 if name == "worksharing" else 16
            assert all(r.tasks_executed == expected for r in result.taskloops)

    def test_timesteps_override(self, tiny, app):
        result = OpenMPRuntime(tiny, seed=0).run_application(app, timesteps=5)
        assert len(result.taskloops) == 5

    def test_bad_timesteps(self, tiny, app):
        with pytest.raises(RuntimeModelError):
            OpenMPRuntime(tiny, seed=0).run_application(app, timesteps=0)

    def test_serial_phases_advance_clock(self, tiny):
        app = make_synthetic(timesteps=2, num_tasks=8, total_iters=64, region_mib=32)
        fast = OpenMPRuntime(tiny, seed=0).run_application(app)
        slow_app = make_synthetic(timesteps=2, num_tasks=8, total_iters=64, region_mib=32)
        object.__setattr__(slow_app, "serial_seconds", 0.5) if False else None
        slow_app.serial_seconds = 0.5
        slow = OpenMPRuntime(tiny, seed=0).run_application(slow_app)
        assert slow.total_time >= fast.total_time + 0.9  # 2 x 0.5s serial

    def test_scheduler_instance_accepted(self, tiny, app):
        from repro.runtime.schedulers import BaselineScheduler

        result = OpenMPRuntime(tiny, scheduler=BaselineScheduler(), seed=0).run_application(app)
        assert result.scheduler == "baseline"


class TestDeterminismAndSeeds:
    def test_same_seed_bitwise_identical(self, tiny, app):
        a = OpenMPRuntime(tiny, scheduler="baseline", seed=3).run_application(app)
        b = OpenMPRuntime(tiny, scheduler="baseline", seed=3).run_application(app)
        assert a.total_time == b.total_time

    def test_seed_override_in_run(self, tiny, app):
        rt = OpenMPRuntime(tiny, scheduler="baseline", seed=3)
        a = rt.run_application(app)
        b = rt.run_application(app, seed=4)
        assert a.seed == 3 and b.seed == 4
        assert a.total_time != b.total_time

    def test_repeated_runs_independent(self, tiny, app):
        """Scheduler state must reset between runs: ILAN run 2 == run 1."""
        rt = OpenMPRuntime(tiny, scheduler="ilan", seed=3)
        a = rt.run_application(app)
        b = rt.run_application(app)
        assert a.total_time == pytest.approx(b.total_time)

    def test_noise_changes_time(self, tiny, app):
        quiet = OpenMPRuntime(tiny, seed=0).run_application(app)
        noisy = OpenMPRuntime(
            tiny, seed=0,
            noise=NoiseParams(mean_interval=0.001, mean_duration=0.002, slow_factor=0.3),
        ).run_application(app)
        assert noisy.total_time > quiet.total_time


class TestAggregates:
    def test_weighted_avg_threads(self, tiny, app):
        result = OpenMPRuntime(tiny, scheduler="baseline", seed=0).run_application(app)
        assert result.weighted_avg_threads == pytest.approx(4.0)  # all cores, always

    def test_loop_times(self, tiny, app):
        result = OpenMPRuntime(tiny, scheduler="baseline", seed=0).run_application(app)
        uid = f"{app.name}.loop"
        assert len(result.loop_times(uid)) == 3

    def test_overhead_by_component(self, tiny, app):
        result = OpenMPRuntime(tiny, scheduler="baseline", seed=0).run_application(app)
        parts = {name: sum(getattr(r.overhead, name) for r in result.taskloops)
                 for name in COMPONENTS}
        assert parts["task_create"] > 0
        assert parts["barrier"] > 0
        assert sum(parts.values()) == pytest.approx(result.total_overhead)
