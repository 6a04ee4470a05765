"""Unit tests for the vectorised per-core progress state."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.progress import CoreStates


def start_simple(states, core, body=1.0, overhead=0.0, mem_frac=0.0, weights=None):
    w = weights if weights is not None else np.zeros(states.num_nodes)
    states.start(
        core, body=body, overhead=overhead, mem_frac=mem_frac, gamma=0.0,
        weights=w, payload=f"task-{core}",
    )


@pytest.fixture
def states():
    return CoreStates(num_cores=4, num_nodes=2)


class TestStartFinish:
    def test_start_marks_active(self, states):
        start_simple(states, 0)
        assert states.active[0]
        assert not states.active[1]
        assert states.any_active()

    def test_double_start_rejected(self, states):
        start_simple(states, 0)
        with pytest.raises(SimulationError):
            start_simple(states, 0)

    def test_finish_returns_payload(self, states):
        start_simple(states, 2)
        assert states.finish(2) == "task-2"
        assert not states.active[2]

    def test_finish_idle_rejected(self, states):
        with pytest.raises(SimulationError):
            states.finish(1)

    def test_validation(self, states):
        with pytest.raises(SimulationError):
            start_simple(states, 9)
        with pytest.raises(SimulationError):
            states.start(0, body=-1.0, overhead=0.0, mem_frac=0.0, gamma=0.0,
                         weights=np.zeros(2), payload=None)
        with pytest.raises(SimulationError):
            states.start(0, body=1.0, overhead=0.0, mem_frac=2.0, gamma=0.0,
                         weights=np.zeros(2), payload=None)
        with pytest.raises(SimulationError):
            states.start(0, body=1.0, overhead=0.0, mem_frac=0.5, gamma=0.0,
                         weights=np.zeros(3), payload=None)


class TestCompletionTimes:
    def test_idle_cores_infinite(self, states):
        t = states.completion_times(np.ones(4))
        assert np.all(np.isinf(t))

    def test_plain_body(self, states):
        start_simple(states, 0, body=2.0)
        t = states.completion_times(np.ones(4))
        assert t[0] == pytest.approx(2.0)

    def test_slowdown_scales_body(self, states):
        start_simple(states, 0, body=2.0)
        s = np.ones(4)
        s[0] = 3.0
        assert states.completion_times(s)[0] == pytest.approx(6.0)

    def test_overhead_not_slowed(self, states):
        start_simple(states, 0, body=2.0, overhead=1.0)
        s = np.ones(4)
        s[0] = 2.0
        assert states.completion_times(s)[0] == pytest.approx(1.0 + 4.0)

    def test_speed_scales_everything(self):
        states = CoreStates(2, 1, base_speed=np.array([2.0, 1.0]))
        start_simple(states, 0, body=2.0, overhead=1.0, weights=np.zeros(1))
        assert states.completion_times(np.ones(2))[0] == pytest.approx(1.5)


class TestAdvance:
    def test_completion_detection(self, states):
        start_simple(states, 0, body=1.0)
        start_simple(states, 1, body=2.0)
        done = states.advance(1.0, np.ones(4))
        assert done == [0]
        states.finish(0)  # caller contract: retire completed cores
        done = states.advance(1.0, np.ones(4))
        assert done == [1]

    def test_partial_progress(self, states):
        start_simple(states, 0, body=2.0)
        assert states.advance(0.5, np.ones(4)) == []
        assert states.rem[0] == pytest.approx(1.5)

    def test_overhead_burns_first(self, states):
        start_simple(states, 0, body=1.0, overhead=0.5)
        states.advance(0.25, np.ones(4))
        assert states.ov[0] == pytest.approx(0.25)
        assert states.rem[0] == pytest.approx(1.0)
        states.advance(0.5, np.ones(4))
        assert states.ov[0] == pytest.approx(0.0)
        assert states.rem[0] == pytest.approx(0.75)

    def test_zero_dt_noop(self, states):
        start_simple(states, 0)
        assert states.advance(0.0, np.ones(4)) == []

    def test_bad_dt(self, states):
        with pytest.raises(SimulationError):
            states.advance(-1.0, np.ones(4))
        with pytest.raises(SimulationError):
            states.advance(math.inf, np.ones(4))

    def test_busy_and_work_accounting(self, states):
        start_simple(states, 0, body=1.0)
        states.advance(1.0, np.ones(4))
        assert states.busy_time[0] == pytest.approx(1.0)
        assert states.work_done[0] == pytest.approx(1.0)
        assert states.busy_time[1] == 0.0


class TestNoise:
    def test_set_noise_scales_speed(self, states):
        states.set_noise(np.array([0.5, 1.0, 1.0, 1.0]))
        assert states.speed[0] == 0.5
        states.set_noise(np.ones(4))
        assert states.speed[0] == 1.0

    def test_noise_validation(self, states):
        with pytest.raises(SimulationError):
            states.set_noise(np.array([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(SimulationError):
            states.set_noise(np.ones(3))


class TestSpeedLayers:
    """The speed-mutation choke point: named multiplicative layers."""

    def test_layers_compose_multiplicatively(self, states):
        states.set_speed_layer("dvfs", np.array([0.5, 1.0, 1.0, 1.0]))
        states.set_speed_layer("noise", np.array([0.8, 0.8, 1.0, 1.0]))
        assert states.speed[0] == pytest.approx(0.4)
        assert states.speed[1] == pytest.approx(0.8)
        assert states.speed[2] == 1.0

    def test_clear_restores_base(self, states):
        states.set_speed_layer("asym", np.full(4, 0.25))
        states.clear_speed_layer("asym")
        assert np.array_equal(states.speed, np.ones(4))
        states.clear_speed_layer("absent")  # no-op, no error

    def test_noise_is_a_layer(self, states):
        states.set_noise(np.array([0.5, 1.0, 1.0, 1.0]))
        states.set_speed_layer("asym", np.full(4, 0.5))
        assert states.speed[0] == pytest.approx(0.25)
        states.set_noise(np.ones(4))
        assert states.speed[0] == pytest.approx(0.5)

    def test_layer_over_base_speed_matches_set_noise_bytes(self):
        """Single-layer composition reproduces the old noise path bitwise."""
        base = np.array([2.0, 1.0, 0.5])
        f = np.array([0.7, 1.1, 0.9])
        a = CoreStates(3, 1, base_speed=base)
        a.set_noise(f)
        assert np.array_equal(a.speed, base * f)

    def test_layer_validation(self, states):
        with pytest.raises(SimulationError):
            states.set_speed_layer("x", np.array([0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(SimulationError):
            states.set_speed_layer("x", np.array([math.inf, 1.0, 1.0, 1.0]))
        with pytest.raises(SimulationError):
            states.set_speed_layer("x", np.ones(3))

    def test_every_mutation_bumps_speed_epoch(self, states):
        e0 = states.speed_epoch
        states.set_speed_layer("a", np.ones(4))
        states.set_noise(np.full(4, 0.5))
        states.clear_speed_layer("a")
        assert states.speed_epoch == e0 + 3

    def test_speed_div_aliases_speed_when_all_online(self, states):
        states.set_speed_layer("a", np.full(4, 0.5))
        assert states.speed_div is states.speed


class TestUnitSpeed:
    """``unit_speed``: every core online at exactly 1.0, the condition
    under which the executor leaves out its speed operations."""

    def test_fresh_unit_machine(self, states):
        assert states.unit_speed

    def test_layer_moves_the_flag(self, states):
        states.set_speed_layer("dvfs", np.array([1.0, 1.0, 0.5, 1.0]))
        assert not states.unit_speed
        states.clear_speed_layer("dvfs")
        assert states.unit_speed
        states.set_noise(np.array([1.0, 1.25, 1.0, 1.0]))
        assert not states.unit_speed
        states.set_noise(np.ones(4))
        assert states.unit_speed

    def test_offline_core_clears_the_flag(self, states):
        states.set_online(np.array([True, True, False, True]))
        assert not states.unit_speed
        states.set_online(np.ones(4, dtype=bool))
        assert states.unit_speed

    def test_base_speeds_other_than_one(self):
        states = CoreStates(3, 1, base_speed=np.array([1.0, 2.0, 1.0]))
        assert not states.unit_speed
        states.set_speed_layer("asym", np.ones(3))
        assert not states.unit_speed
        # the flag reads the composed speed: 2.0 * 0.5 is exactly 1.0
        states.set_speed_layer("asym", np.array([1.0, 0.5, 1.0]))
        assert states.unit_speed


class TestOnline:
    def test_offline_core_speed_zero_div_one(self, states):
        states.set_online(np.array([True, False, True, True]))
        assert states.speed[1] == 0.0
        assert states.speed_div[1] == 1.0
        assert states.any_offline
        assert states.offline[1]

    def test_online_epoch_bumps_only_on_flips(self, states):
        e0 = states.online_epoch
        states.set_online(np.ones(4, dtype=bool))  # no flip
        assert states.online_epoch == e0
        states.set_online(np.array([True, False, True, True]))
        assert states.online_epoch == e0 + 1
        states.set_online(np.array([True, False, True, True]))  # same mask
        assert states.online_epoch == e0 + 1
        # speed changes alone never touch online_epoch
        states.set_noise(np.full(4, 0.5))
        assert states.online_epoch == e0 + 1

    def test_offline_active_core_never_completes(self, states):
        start_simple(states, 1, body=1.0)
        states.set_online(np.array([True, False, True, True]))
        t = states.completion_times(np.ones(4))
        assert math.isinf(t[1])

    def test_offline_task_freezes_and_resumes(self, states):
        start_simple(states, 0, body=2.0, overhead=0.5)
        states.set_online(np.array([False, True, True, True]))
        states.advance(5.0, np.ones(4))
        assert states.rem[0] == pytest.approx(2.0)  # nothing progressed
        assert states.ov[0] == pytest.approx(0.5)
        assert states.busy_time[0] == pytest.approx(5.0)  # core still held
        states.set_online(np.ones(4, dtype=bool))
        assert states.completion_times(np.ones(4))[0] == pytest.approx(2.5)

    def test_flips_land_in_change_log(self, states):
        states.set_online(np.array([True, False, False, True]))
        assert states.changed == [1, 2]
        states.changed.clear()
        states.set_noise(np.full(4, 0.5))  # pure speed change: not logged
        assert states.changed == []

    def test_online_mask_validation(self, states):
        with pytest.raises(SimulationError):
            states.set_online(np.ones(3, dtype=bool))


class TestStalePredictionGuard:
    """Regression: completion predictions must not survive speed mutations.

    The historical bug: the executor predicted completion times, a noise /
    DVFS / offline event changed core speeds, and the pre-change ``dt``
    was still used to advance — firing the finish early (core sped up
    mid-step would be "late", slowed down would be "early").  The choke
    point stamps predictions with ``speed_epoch`` and ``advance`` refuses
    stale ones.
    """

    def test_stale_prediction_would_fire_finish_early(self, states):
        start_simple(states, 0, body=2.0)
        dt = states.completion_times(np.ones(4))[0]
        assert dt == pytest.approx(2.0)
        # core halves speed before the step is taken: the task now needs
        # 4.0 wall seconds, so advancing by the stale 2.0 would complete
        # it a full 2.0 seconds early
        states.set_speed_layer("dvfs", np.array([0.5, 1.0, 1.0, 1.0]))
        with pytest.raises(SimulationError, match="stale completion predictions"):
            states.advance(dt, np.ones(4))
        # re-deriving gives the correct post-change prediction and works
        dt2 = states.completion_times(np.ones(4))[0]
        assert dt2 == pytest.approx(4.0)
        assert states.advance(dt2, np.ones(4)) == [0]

    def test_stale_prediction_after_offline_flip(self, states):
        start_simple(states, 0, body=1.0)
        states.completion_times(np.ones(4))
        states.set_online(np.array([False, True, True, True]))
        with pytest.raises(SimulationError, match="stale"):
            states.advance(1.0, np.ones(4))

    def test_advance_without_prediction_is_allowed(self, states):
        start_simple(states, 0, body=1.0)
        states.set_noise(np.full(4, 0.5))
        # no completion_times() outstanding: nothing to be stale
        states.advance(0.5, np.ones(4))

    def test_fresh_prediction_advances_cleanly(self, states):
        start_simple(states, 0, body=1.0)
        states.set_noise(np.full(4, 0.5))
        dt = states.completion_times(np.ones(4))[0]
        assert states.advance(dt, np.ones(4)) == [0]
