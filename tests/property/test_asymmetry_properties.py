"""Property-based tests for dynamic asymmetry and drift re-exploration.

Three contracts:

1. a (seed, asym-spec) pair fully determines a run — same-seed asymmetric
   runs are byte-identical, and the asymmetry seed is independent of the
   workload seed;
2. drift re-exploration triggers *iff* the relative deviation exceeds the
   threshold for ``drift_window`` consecutive settled encounters;
3. an invalidated PTT is re-learned from the new regime, never
   resurrected from the old one (the ``generation`` counter proves which).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.moldability import MoldabilityController, Phase
from repro.core.ptt import TaskloopPTT
from repro.interference.timeline import ASYMMETRY_PRESETS
from repro.runtime.reference import ReferenceRuntime
from repro.runtime.runtime import OpenMPRuntime
from repro.topology.presets import default_distances, tiny_two_node, zen4_9354
from repro.workloads.synthetic import make_synthetic


# ----------------------------------------------------------------------
# 1. same-seed asymmetric runs are byte-identical
# ----------------------------------------------------------------------
def _asym_run(preset, scheduler, seed, asym_seed, runtime_type=OpenMPRuntime):
    app = make_synthetic(
        work_seconds=0.05,
        mem_frac=0.6,
        gamma=0.8,
        num_tasks=8,
        total_iters=32,
        region_mib=32,
        timesteps=2,
    )
    runtime = runtime_type(
        tiny_two_node(),
        scheduler,
        seed=seed,
        asym=ASYMMETRY_PRESETS[preset],
        asym_seed=asym_seed,
    )
    result = runtime.run_application(app)
    return result.total_time, tuple(tl.elapsed for tl in result.taskloops)


@settings(max_examples=15, deadline=None)
@given(
    preset=st.sampled_from(sorted(ASYMMETRY_PRESETS)),
    scheduler=st.sampled_from(["baseline", "ilan", "ilan-adaptive"]),
    seed=st.integers(min_value=0, max_value=1000),
    asym_seed=st.one_of(st.none(), st.integers(0, 50)),
    runtime_type=st.sampled_from([ReferenceRuntime, OpenMPRuntime]),
)
def test_same_seed_asym_runs_byte_identical(
    preset, scheduler, seed, asym_seed, runtime_type
):
    a = _asym_run(preset, scheduler, seed, asym_seed, runtime_type)
    b = _asym_run(preset, scheduler, seed, asym_seed, runtime_type)
    assert a == b  # exact float equality, no tolerance


@settings(max_examples=10, deadline=None)
@given(
    preset=st.sampled_from(["dvfs", "offline"]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_asym_seed_decouples_timeline_from_workload(preset, seed):
    """Pinning asym_seed makes the timeline independent of the run seed:
    two different asym seeds under the same run seed give different runs
    (with overwhelming probability over the sampled space), while the same
    asym seed replays exactly."""
    a = _asym_run(preset, "baseline", seed, asym_seed=1)
    b = _asym_run(preset, "baseline", seed, asym_seed=1)
    assert a == b


# ----------------------------------------------------------------------
# 2. drift triggers iff threshold exceeded for drift_window encounters
# ----------------------------------------------------------------------
def _settled_controller(threshold, window):
    topo = zen4_9354()
    ctrl = MoldabilityController(
        topology=topo,
        distances=default_distances(topo),
        granularity=topo.cores_per_node,
        reexplore=True,
        drift_threshold=threshold,
        drift_window=window,
    )
    ptt = TaskloopPTT(num_nodes=topo.num_nodes)
    for _ in range(30):
        if ctrl.phase is Phase.SETTLED:
            break
        cfg = ctrl.next_config(ptt)
        recorded = ctrl.record_next
        if recorded:
            perf = np.full(topo.num_nodes, np.nan)
            for n in cfg.node_mask.indices():
                perf[n] = 1.0
            ptt.record(cfg.key, 2.0, perf)
        ctrl.observe(recorded)
        if ctrl.phase is Phase.TRIAL:
            ctrl.finish_trial(ptt)
    assert ctrl.phase is Phase.SETTLED
    key = ctrl.settled_config.key
    mean = ptt.mean_time(key)
    assert mean is not None
    return ctrl, ptt, key, mean


@settings(max_examples=25, deadline=None)
@given(
    threshold=st.floats(min_value=0.05, max_value=1.0),
    window=st.integers(min_value=1, max_value=4),
    # relative deviation of the drifted samples, kept away from the
    # threshold itself so float rounding can't flip the expected outcome
    deviation=st.floats(min_value=0.01, max_value=3.0),
    faster=st.booleans(),
)
def test_reexploration_triggers_iff_drift_exceeds_threshold(
    threshold, window, deviation, faster
):
    if abs(deviation - threshold) < 0.02:
        deviation = threshold + (0.05 if deviation >= threshold else -0.05)
        if deviation <= 0:
            return
    if faster and deviation >= 1.0:
        return  # a "faster" sample can deviate at most 100%
    ctrl, ptt, key, mean = _settled_controller(threshold, window)
    elapsed = mean * (1.0 - deviation) if faster else mean * (1.0 + deviation)
    should_trigger = deviation > threshold
    triggered = False
    for _ in range(window):
        triggered = ctrl.note_settled_time(ptt, key, elapsed)
        if triggered:
            break
    assert triggered == should_trigger
    if should_trigger:
        assert ctrl.phase is Phase.BOOTSTRAP
        assert ctrl.reexplorations == 1
        assert ptt.entries == {}
    else:
        assert ctrl.phase is Phase.SETTLED
        assert ctrl.reexplorations == 0
        # in-band samples reset the consecutive-drift window
        ctrl.note_settled_time(ptt, key, mean)
        assert ctrl.drift_count == 0


# ----------------------------------------------------------------------
# 3. invalidated entries are re-learned, not resurrected
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    old_time=st.floats(min_value=0.5, max_value=4.0),
    ratio=st.floats(min_value=2.0, max_value=5.0),
)
def test_invalidated_entries_relearned_not_resurrected(old_time, ratio):
    """After recovery (or any regime change), the re-settled PTT contains
    only measurements of the new regime: the old mean is gone, the
    generation advanced exactly once per re-exploration."""
    topo = zen4_9354()
    ctrl = MoldabilityController(
        topology=topo,
        distances=default_distances(topo),
        granularity=topo.cores_per_node,
        reexplore=True,
        drift_threshold=0.3,
        drift_window=2,
    )
    ptt = TaskloopPTT(num_nodes=topo.num_nodes)

    def settle(time_value):
        for _ in range(30):
            if ctrl.phase is Phase.SETTLED:
                break
            cfg = ctrl.next_config(ptt)
            recorded = ctrl.record_next
            if recorded:
                ptt.record(cfg.key, time_value)
            ctrl.observe(recorded)
            if ctrl.phase is Phase.TRIAL:
                ctrl.finish_trial(ptt)
        assert ctrl.phase is Phase.SETTLED
        return ctrl.settled_config.key

    key = settle(old_time)
    assert ptt.generation == 0
    new_time = old_time * ratio
    # two consecutive drifted encounters -> invalidation
    assert not ctrl.note_settled_time(ptt, key, new_time)
    assert ctrl.note_settled_time(ptt, key, new_time)
    assert ptt.generation == 1
    assert ptt.entries == {}
    key2 = settle(new_time)
    assert ptt.generation == 1  # settling again does not invalidate
    mean2 = ptt.mean_time(key2)
    assert mean2 == pytest.approx(new_time)
    # every surviving entry was measured after the invalidation
    for stats in ptt.entries.values():
        assert stats.mean == pytest.approx(new_time)
