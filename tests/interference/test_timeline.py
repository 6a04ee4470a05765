"""Unit tests for the seeded dynamic-asymmetry timeline."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.interference.timeline import (
    ASYMMETRY_PRESETS,
    AsymmetrySpec,
    AsymmetryTimeline,
)
from repro.sim.engine import Simulator
from repro.sim.progress import CoreStates
from repro.sim.rng import stream


def make_timeline(spec, *, seed=3, num_cores=8, num_nodes=2):
    sim = Simulator()
    states = CoreStates(num_cores, num_nodes)
    node_of_core = np.repeat(np.arange(num_nodes), num_cores // num_nodes)
    tl = AsymmetryTimeline(sim, states, spec, stream(seed, "asym"), node_of_core)
    return sim, states, tl


def drive(sim, steps):
    """Run up to ``steps`` events of the simulator's queue."""
    for _ in range(steps):
        if sim.events.is_empty():
            return
        sim.clock.advance_to(sim.events.next_time())
        sim.run_due_events()


class TestSpec:
    def test_disabled_by_default(self):
        spec = AsymmetrySpec()
        assert not spec.enabled
        assert spec.describe() == "none"

    def test_enabled_when_any_interval_set(self):
        assert AsymmetrySpec(dvfs_interval=0.5).enabled
        assert AsymmetrySpec(offline_interval=0.5).enabled

    def test_validation(self):
        with pytest.raises(SimulationError):
            AsymmetrySpec(dvfs_interval=-1.0)
        with pytest.raises(SimulationError):
            AsymmetrySpec(dvfs_low=0.9, dvfs_high=0.5)
        with pytest.raises(SimulationError):
            AsymmetrySpec(throttle_floor=1.5)
        with pytest.raises(SimulationError):
            AsymmetrySpec(throttle_steps=0)
        with pytest.raises(SimulationError):
            AsymmetrySpec(cotenant_fraction=0.0)
        with pytest.raises(SimulationError):
            AsymmetrySpec(max_offline_fraction=1.0)
        with pytest.raises(SimulationError):
            AsymmetrySpec(dvfs_max_nodes=0)

    def test_describe_lists_non_defaults_canonically(self):
        spec = AsymmetrySpec(dvfs_interval=0.25, offline_interval=0.5)
        assert spec.describe() == "dvfs_interval=0.25,offline_interval=0.5"

    def test_describe_stable_across_parse_spellings(self):
        a = AsymmetrySpec.parse("dvfs_interval=0.200,offline_interval=0.5")
        b = AsymmetrySpec.parse("offline_interval=0.5,dvfs_interval=0.2")
        assert a.describe() == b.describe()

    def test_parse_none_and_empty(self):
        assert AsymmetrySpec.parse("none") == AsymmetrySpec()
        assert AsymmetrySpec.parse("") == AsymmetrySpec()
        assert AsymmetrySpec.parse("  ") == AsymmetrySpec()

    def test_parse_preset(self):
        assert AsymmetrySpec.parse("dvfs") == ASYMMETRY_PRESETS["dvfs"]

    def test_parse_preset_with_overrides(self):
        spec = AsymmetrySpec.parse("dvfs:dvfs_low=0.2,dvfs_duration=1.5")
        assert spec.dvfs_interval == ASYMMETRY_PRESETS["dvfs"].dvfs_interval
        assert spec.dvfs_low == 0.2
        assert spec.dvfs_duration == 1.5

    def test_parse_preset_composition(self):
        spec = AsymmetrySpec.parse("dvfs+offline")
        assert spec.dvfs_interval is not None
        assert spec.offline_interval is not None

    def test_parse_bare_overrides(self):
        spec = AsymmetrySpec.parse("cotenant_interval=0.1,cotenant_factor=0.5")
        assert spec.cotenant_interval == 0.1
        assert spec.cotenant_factor == 0.5

    def test_parse_none_value_disables_field(self):
        spec = AsymmetrySpec.parse("dvfs:dvfs_interval=none")
        assert spec.dvfs_interval is None
        assert not spec.enabled

    def test_parse_throttle_steps_is_int(self):
        spec = AsymmetrySpec.parse("throttle:throttle_steps=8")
        assert spec.throttle_steps == 8
        assert isinstance(spec.throttle_steps, int)

    def test_parse_errors(self):
        with pytest.raises(SimulationError, match="unknown asymmetry preset"):
            AsymmetrySpec.parse("nosuch")
        with pytest.raises(SimulationError, match="bad asymmetry override"):
            AsymmetrySpec.parse("dvfs:bogus_field=1")
        with pytest.raises(SimulationError, match="bad value"):
            AsymmetrySpec.parse("dvfs_interval=abc")

    def test_every_preset_is_valid_and_enabled(self):
        for name, spec in ASYMMETRY_PRESETS.items():
            assert spec.enabled, name
            assert spec.describe() != "none"
            # round trip: the preset name parses to the preset spec
            assert AsymmetrySpec.parse(name) == spec


class TestTimeline:
    def test_disabled_schedules_nothing(self):
        sim, _, tl = make_timeline(AsymmetrySpec())
        tl.start()
        assert sim.events.is_empty()

    def test_enabled_mechanisms_each_arm_one_onset(self):
        sim, _, tl = make_timeline(
            AsymmetrySpec(dvfs_interval=0.1, offline_interval=0.1)
        )
        tl.start()
        assert len(sim.events) == 2

    def test_dvfs_slows_one_node_then_reverts(self):
        spec = AsymmetrySpec(dvfs_interval=5.0, dvfs_duration=0.01)
        sim, states, tl = make_timeline(spec)
        tl.start()
        drive(sim, 1)  # the first onset
        assert tl.dvfs_episodes == 1
        slowed = np.flatnonzero(states.speed < 1.0)
        assert slowed.size == 4  # one node of the 8-core/2-node machine
        node = tl.node_of_core[slowed[0]]
        assert np.all(tl.node_of_core[slowed] == node)
        f = states.speed[slowed[0]]
        assert spec.dvfs_low <= f <= spec.dvfs_high
        # drive until the offset restores nominal speed
        for _ in range(50):
            drive(sim, 1)
            if np.all(states.speed == 1.0):
                break
        assert np.all(states.speed == pytest.approx(1.0))

    def test_dvfs_is_one_pstate_per_node_never_stacked(self):
        # Onsets fire far faster than the long step reverts; a node that is
        # already stepped skips the new onset instead of compounding factors.
        spec = AsymmetrySpec(dvfs_interval=1e-3, dvfs_duration=100.0,
                             dvfs_low=0.15, dvfs_high=0.2)
        sim, states, tl = make_timeline(spec)
        tl.start()
        drive(sim, 50)
        assert tl.dvfs_skipped >= 1
        # absolute P-state assignment: speeds never fall below a single draw
        assert float(states.speed.min()) >= spec.dvfs_low
        assert tl.dvfs_episodes <= tl.num_nodes

    def test_dvfs_max_nodes_caps_concurrent_steps(self):
        spec = AsymmetrySpec(dvfs_interval=1e-3, dvfs_duration=100.0,
                             dvfs_max_nodes=1)
        sim, states, tl = make_timeline(spec)
        tl.start()
        drive(sim, 50)
        assert tl.dvfs_episodes == 1
        assert tl.dvfs_skipped >= 1
        assert np.flatnonzero(states.speed < 1.0).size == 4  # one node

    def test_dvfs_max_nodes_parses_as_int(self):
        spec = AsymmetrySpec.parse("dvfs:dvfs_max_nodes=2")
        assert spec.dvfs_max_nodes == 2
        assert isinstance(spec.dvfs_max_nodes, int)

    def test_throttle_ramp_ends_at_exactly_one(self):
        spec = AsymmetrySpec(
            throttle_interval=100.0, throttle_steps=3,
            throttle_step_time=0.01, throttle_hold=0.05,
        )
        sim, states, tl = make_timeline(spec)
        tl.start()
        floor_seen = 1.0
        for _ in range(40):
            drive(sim, 1)
            floor_seen = min(floor_seen, float(states.speed.min()))
            if tl.throttle_episodes >= 1 and not tl._throttle_active:
                break
        assert tl.throttle_episodes == 1
        assert floor_seen == pytest.approx(spec.throttle_floor)
        # absolute assignment: the ramp ends at exactly 1.0, no drift
        assert np.all(tl._throttle == 1.0)

    def test_throttle_one_episode_at_a_time(self):
        spec = AsymmetrySpec(
            throttle_interval=1e-4, throttle_steps=4,
            throttle_step_time=1.0, throttle_hold=1.0,
        )
        sim, _, tl = make_timeline(spec)
        tl.start()
        # many onsets fire while the first slow ramp is still in flight;
        # all of them must coalesce into the one active episode
        drive(sim, 30)
        assert tl.throttle_episodes == 1

    def test_cotenant_slows_fraction_then_reverts(self):
        spec = AsymmetrySpec(
            cotenant_interval=100.0, cotenant_factor=0.5,
            cotenant_fraction=0.25, cotenant_duration=0.01,
        )
        sim, states, tl = make_timeline(spec)
        tl.start()
        drive(sim, 1)
        slowed = np.flatnonzero(states.speed < 1.0)
        assert slowed.size == 2  # 25% of 8 cores
        assert np.all(states.speed[slowed] == pytest.approx(0.5))
        for _ in range(20):
            drive(sim, 1)
            if np.all(states.speed == 1.0):
                break
        assert np.all(states.speed == pytest.approx(1.0))

    def test_offline_respects_cap_and_recovers(self):
        spec = AsymmetrySpec(
            offline_interval=0.01, offline_duration=0.5,
            max_offline_fraction=0.25,
        )
        sim, states, tl = make_timeline(spec)
        tl.start()
        max_seen = 0
        for _ in range(100):
            drive(sim, 1)
            max_seen = max(max_seen, int((~states.online).sum()))
        assert tl.offline_episodes >= 1
        assert max_seen <= 2  # floor(0.25 * 8)
        assert tl.offline_skipped >= 1  # the cap actually bit
        # every offline event schedules its own online event, so completed
        # recoveries keep pace with onsets (concurrent offline <= cap)
        offline_now = int((~states.online).sum())
        recoveries = tl.offline_episodes - offline_now
        assert recoveries >= 1
        assert offline_now <= 2

    def test_offline_flows_through_set_online(self):
        spec = AsymmetrySpec(offline_interval=1.0, offline_duration=10.0)
        sim, states, tl = make_timeline(spec)
        tl.start()
        drive(sim, 1)
        assert tl.offline_episodes == 1
        off = np.flatnonzero(~states.online)
        assert len(off) == 1
        assert states.any_offline
        assert states.speed[off[0]] == 0.0

    def test_mechanisms_compose_in_one_layer(self):
        spec = AsymmetrySpec(dvfs_interval=1e-3, cotenant_interval=1e-3)
        sim, states, tl = make_timeline(spec)
        tl.start()
        drive(sim, 4)
        expected = tl._dvfs * tl._throttle * tl._cotenant
        assert np.array_equal(tl.factors, expected)
        assert np.allclose(states.speed, expected)

    def test_deterministic_given_seed(self):
        spec = ASYMMETRY_PRESETS["harsh"]
        speeds = []
        for _ in range(2):
            sim, states, tl = make_timeline(spec, seed=7)
            tl.start()
            drive(sim, 60)
            speeds.append((sim.now, states.speed.copy(), states.online.copy()))
        assert speeds[0][0] == speeds[1][0]
        assert np.array_equal(speeds[0][1], speeds[1][1])
        assert np.array_equal(speeds[0][2], speeds[1][2])

    def test_different_seed_different_timeline(self):
        spec = AsymmetrySpec(dvfs_interval=0.2)
        sim_a, _, tl_a = make_timeline(spec, seed=1)
        sim_b, _, tl_b = make_timeline(spec, seed=2)
        tl_a.start()
        tl_b.start()
        assert sim_a.events.next_time() != sim_b.events.next_time()

    def test_node_of_core_validated(self):
        sim = Simulator()
        states = CoreStates(8, 2)
        with pytest.raises(SimulationError):
            AsymmetryTimeline(
                sim, states, AsymmetrySpec(), stream(0, "asym"), np.zeros(3, dtype=int)
            )
