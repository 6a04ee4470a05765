"""Unit tests for the workload model base types."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.memory.access import AccessPattern
from repro.runtime.context import RunContext
from repro.runtime.task import SerialPhase, TaskloopWork
from repro.workloads.base import (
    Application,
    RegionSpec,
    TaskloopSpec,
    imbalance_profile,
)


def spec(**kw):
    defaults = dict(
        name="loop", region="r", work_seconds=0.1, mem_frac=0.5,
        pattern=AccessPattern.blocked(),
    )
    defaults.update(kw)
    return TaskloopSpec(**defaults)


def app(loops=None, **kw):
    defaults = dict(
        name="app",
        regions=[RegionSpec("r", 32 * 1024 * 1024)],
        loops=loops or [spec()],
        timesteps=2,
    )
    defaults.update(kw)
    return Application(**defaults)


class TestImbalanceProfile:
    def test_uniform(self):
        w = imbalance_profile("uniform", 0.0, key="x")
        assert np.allclose(w, w[0])
        assert w.sum() == pytest.approx(1.0)

    def test_linear_ramp_cv(self):
        w = imbalance_profile("linear", 0.3, key="x", cells=4096)
        cv = w.std() / w.mean()
        assert cv == pytest.approx(0.3, rel=0.05)
        assert w[-1] > w[0]

    def test_linear_extreme_cv_clamped(self):
        w = imbalance_profile("linear", 5.0, key="x")
        assert np.all(w > 0)

    def test_irregular_cv(self):
        w = imbalance_profile("irregular", 0.5, key="x", cells=8192)
        cv = w.std() / w.mean()
        assert cv == pytest.approx(0.5, rel=0.15)

    def test_irregular_deterministic_per_key(self):
        a = imbalance_profile("irregular", 0.5, key="app.loop")
        b = imbalance_profile("irregular", 0.5, key="app.loop")
        c = imbalance_profile("irregular", 0.5, key="app.other")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_irregular_zero_cv_uniform(self):
        w = imbalance_profile("irregular", 0.0, key="x")
        assert np.allclose(w, w[0])

    def test_validation(self):
        with pytest.raises(WorkloadError):
            imbalance_profile("weird", 0.1, key="x")
        with pytest.raises(WorkloadError):
            imbalance_profile("uniform", -1.0, key="x")
        with pytest.raises(WorkloadError):
            imbalance_profile("uniform", 0.0, key="x", cells=1)


class TestSpecs:
    def test_taskloop_spec_validation(self):
        with pytest.raises(WorkloadError):
            spec(work_seconds=0.0)
        with pytest.raises(WorkloadError):
            spec(mem_frac=2.0)
        with pytest.raises(WorkloadError):
            spec(reuse=-0.1)
        with pytest.raises(WorkloadError):
            spec(gamma=-1.0)
        with pytest.raises(WorkloadError):
            spec(num_tasks=0)
        with pytest.raises(WorkloadError):
            spec(num_tasks=10, total_iters=5)
        with pytest.raises(WorkloadError):
            spec(repeat=0)

    def test_region_spec_validation(self):
        with pytest.raises(WorkloadError):
            RegionSpec("r", 0)


class TestApplication:
    def test_valid_app(self):
        a = app()
        assert a.loop_uids() == ["app.loop"]

    def test_duplicate_loop_names_rejected(self):
        with pytest.raises(WorkloadError):
            app(loops=[spec(), spec()])

    def test_unknown_region_rejected(self):
        with pytest.raises(WorkloadError):
            app(loops=[spec(region="nope")])

    def test_duplicate_regions_rejected(self):
        with pytest.raises(WorkloadError):
            Application(
                name="a",
                regions=[RegionSpec("r", 1024), RegionSpec("r", 2048)],
                loops=[spec()],
            )

    def test_setup_allocates_regions(self, tiny):
        ctx = RunContext.create(tiny, seed=0)
        app().setup(ctx)
        assert "r" in ctx.mem

    def test_encounters_yield_works_in_order(self, tiny):
        ctx = RunContext.create(tiny, seed=0)
        a = app(loops=[spec(name="a"), spec(name="b")], serial_seconds=0.01)
        a.setup(ctx)
        items = list(a.encounters(0, ctx))
        assert isinstance(items[0], SerialPhase)
        assert isinstance(items[1], TaskloopWork)
        assert items[1].uid == "app.a"
        assert items[2].uid == "app.b"

    def test_repeat_yields_multiple_encounters(self, tiny):
        ctx = RunContext.create(tiny, seed=0)
        a = app(loops=[spec(repeat=3)])
        a.setup(ctx)
        works = [i for i in a.encounters(0, ctx) if isinstance(i, TaskloopWork)]
        assert len(works) == 3
        assert len({id(w) for w in works}) == 3

    def test_work_weights_come_from_profile(self, tiny):
        ctx = RunContext.create(tiny, seed=0)
        a = app(loops=[spec(imbalance="linear", imbalance_cv=0.3)])
        a.setup(ctx)
        (w,) = [i for i in a.encounters(0, ctx) if isinstance(i, TaskloopWork)]
        assert w.weights[-1] > w.weights[0]
