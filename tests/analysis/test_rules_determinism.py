"""Fixture tests for the determinism rules: DET001/DET002/DET003/SEED001.

Every rule gets at least one asserted true positive and one
false-positive guard; snippets are inline strings so the analyzer can
scan ``tests/`` without tripping over its own fixtures.
"""

import pytest

from tests.analysis.conftest import CORE, EXP, OUTSIDE, RUNTIME, SERVE, SIM

#: every package that feeds a simulated run is in DET001's scope, not just
#: the simulator core
SIMULATION_PACKAGES = ["sim", "memory", "workloads", "topology", "counters", "energy"]


class TestDet001WallClock:
    @pytest.mark.parametrize("package", SIMULATION_PACKAGES)
    def test_attribute_call_flagged(self, check, package):
        findings = check(
            f"src/repro/{package}/fixture.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            select="DET001",
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert "time.time" in findings[0].message
        assert findings[0].line == 5

    def test_from_import_bare_name_flagged(self, check):
        findings = check(
            RUNTIME,
            """
            from time import monotonic

            def stamp():
                return monotonic()
            """,
            select="DET001",
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_aliased_import_resolved(self, check):
        findings = check(
            CORE,
            """
            from time import perf_counter as tick

            def stamp():
                return tick()
            """,
            select="DET001",
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert "time.perf_counter" in findings[0].message

    def test_datetime_now_flagged(self, check):
        findings = check(
            EXP,
            """
            import datetime

            def today():
                return datetime.datetime.now()
            """,
            select="DET001",
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_guard_serve_may_read_wall_clock(self, check):
        # serve/ measures real latency; DET001 scopes to sim/core/runtime/exp
        assert check(SERVE, "import time\nt = time.time()\n", select="DET001") == []

    def test_guard_local_name_collision_not_flagged(self, check):
        # a local variable merely *named* like the function is not a clock read
        findings = check(
            SIM,
            """
            def advance(monotonic):
                return monotonic()
            """,
            select="DET001",
        )
        assert findings == []

    def test_guard_sim_clock_reads_allowed(self, check):
        findings = check(
            SIM,
            """
            def due(sim):
                return sim.clock.now
            """,
            select="DET001",
        )
        assert findings == []


class TestDet002AmbientRng:
    def test_module_level_random_flagged(self, check):
        findings = check(
            SIM,
            """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """,
            select="DET002",
        )
        assert [f.rule for f in findings] == ["DET002"]
        assert "random.uniform" in findings[0].message

    def test_unseeded_constructor_flagged(self, check):
        findings = check(
            SERVE,
            """
            import random

            def make():
                return random.Random()
            """,
            select="DET002",
        )
        assert [f.rule for f in findings] == ["DET002"]
        assert "never replays" in findings[0].message

    def test_numpy_legacy_global_flagged(self, check):
        findings = check(
            EXP,
            """
            import numpy as np

            def draw():
                return np.random.normal(0.0, 1.0)
            """,
            select="DET002",
        )
        assert [f.rule for f in findings] == ["DET002"]

    def test_guard_seeded_constructor_ok(self, check):
        findings = check(
            SERVE,
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
            select="DET002",
        )
        assert findings == []

    def test_guard_injected_generator_methods_ok(self, check):
        # `rng.random()` is a method on an injected generator, not the
        # module-level `random.random`
        findings = check(
            SIM,
            """
            def jitter(rng):
                return rng.random() + rng.uniform(0.0, 1.0)
            """,
            select="DET002",
        )
        assert findings == []

    def test_guard_outside_seeded_packages_ignored(self, check):
        src = "import random\nx = random.random()\n"
        assert check(OUTSIDE, src, select="DET002") == []


class TestDet003TimeEquality:
    def test_deadline_equality_flagged(self, check):
        findings = check(
            SIM,
            """
            def due(ev, now):
                return ev.deadline == now
            """,
            select="DET003",
        )
        assert [f.rule for f in findings] == ["DET003"]
        assert "DUE_REL_TOL" in findings[0].message

    def test_not_equal_flagged_too(self, check):
        findings = check(
            RUNTIME,
            """
            def moved(start, t):
                return start != t
            """,
            select="DET003",
        )
        assert [f.rule for f in findings] == ["DET003"]

    def test_snake_case_token_detected(self, check):
        findings = check(
            EXP,
            """
            def at_boundary(task, window_end):
                return task.end_time == window_end
            """,
            select="DET003",
        )
        assert [f.rule for f in findings] == ["DET003"]

    def test_guard_string_state_comparison_ok(self, check):
        # `phase == "end"` compares against a string, not a float clock
        findings = check(
            SIM,
            """
            def finished(phase):
                return phase == "end"
            """,
            select="DET003",
        )
        assert findings == []

    def test_guard_non_time_identifiers_ok(self, check):
        findings = check(
            SIM,
            """
            def same_node(a, b):
                return a.node == b.node and a.count != b.count
            """,
            select="DET003",
        )
        assert findings == []

    def test_guard_ordering_comparisons_ok(self, check):
        # only ==/!= are magnitude-dependent traps; </<= are fine
        findings = check(
            SIM,
            """
            def before(deadline, now):
                return deadline <= now
            """,
            select="DET003",
        )
        assert findings == []


class TestSeed001SeedlessEntryPoint:
    def test_hidden_seed_flagged(self, check):
        findings = check(
            EXP,
            """
            import numpy as np

            def sample_plan():
                rng = np.random.default_rng(12345)
                return rng.integers(0, 10)
            """,
            select="SEED001",
        )
        assert [f.rule for f in findings] == ["SEED001"]
        assert "sample_plan" in findings[0].message

    def test_guard_seed_parameter_ok(self, check):
        findings = check(
            EXP,
            """
            import numpy as np

            def sample_plan(seed):
                rng = np.random.default_rng(seed)
                return rng.integers(0, 10)
            """,
            select="SEED001",
        )
        assert findings == []

    def test_guard_rng_threaded_from_param_ok(self, check):
        findings = check(
            SERVE,
            """
            from repro.sim.rng import pyrandom

            def backoff(base_seed, tenant):
                return pyrandom(base_seed, "serve", tenant)
            """,
            select="SEED001",
        )
        assert findings == []

    def test_guard_self_attribute_seed_ok(self, check):
        # methods re-deriving their stream from self.seed are replayable
        # through the constructor
        findings = check(
            SERVE,
            """
            from repro.sim.rng import stream

            class Plan:
                def __init__(self, seed):
                    self.seed = seed

                def decide(self, name):
                    return stream(self.seed, "plan", name)
            """,
            select="SEED001",
        )
        assert findings == []

    def test_guard_private_helpers_exempt(self, check):
        findings = check(
            EXP,
            """
            import numpy as np

            def _fixture_rng():
                return np.random.default_rng(0)
            """,
            select="SEED001",
        )
        assert findings == []
