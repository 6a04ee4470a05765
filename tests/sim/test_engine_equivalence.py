"""Differential suite: the production engine is byte-identical, proven.

The production engine (:mod:`repro.sim.incremental` plus the fused
executor loop) promises *bit-for-bit* the same simulation as the
reference engine — same traces, same completion times, same counters,
same steal decisions — with the reference path kept alive as the oracle
(:mod:`repro.runtime.reference`).  These tests pin that contract across
hypothesis-generated task sets and seeded campaigns: schedulers, machines
(including the single-node machine, which exercises the demand fast
path's fallback, the paper's 64-core Zen 4 running every paper
benchmark, and a 1024-core, 64-node machine), noise processes, node
leases and injected runner faults.

The suites below total well over 200 generated scenarios, every one
compared field-for-field with ``==`` / ``array_equal`` — no tolerances
anywhere: a single flipped mantissa bit anywhere in a run fails.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransientRunnerError
from repro.exp.cache import run_to_json
from repro.exp.runner import (
    ExperimentConfig,
    Runner,
    RunSpec,
    default_noise,
    derive_run_seed,
    execute_spec,
)
from repro.interference.noise import NoiseParams
from repro.interference.timeline import ASYMMETRY_PRESETS, AsymmetrySpec
from repro.runtime.context import RunContext
from repro.runtime.reference import ReferenceRuntime
from repro.runtime.runtime import OpenMPRuntime
from repro.runtime.schedulers import create_scheduler
from repro.sim import incremental
from repro.topology.machine import GIB, MIB, MachineTopology
from repro.topology.presets import (
    dual_socket_small,
    single_node,
    tiny_two_node,
    zen4_9354,
)
from repro.workloads.registry import PAPER_ORDER
from repro.workloads.synthetic import make_synthetic
from tests.conftest import make_work

PRESETS = {
    "tiny": tiny_two_node,
    "uma": single_node,  # num_nodes == 1: the padded-demand fallback path
    "small": dual_socket_small,
}

SCHEDULERS = ("baseline", "ilan", "ilan-nomold", "worksharing")

#: The production runtime and the differential oracle.
PRODUCTION = OpenMPRuntime
ORACLE = ReferenceRuntime


# ----------------------------------------------------------------------
# comparison helpers: exact equality only
# ----------------------------------------------------------------------
def _counters_tuple(counters):
    if counters is None:
        return None
    return (
        counters.elapsed,
        counters.sat_time_integral,
        counters.peak_saturation,
        counters.bytes_total,
        counters.bytes_remote,
        counters.busy_time,
        counters.idle_time,
    )


def assert_taskloop_identical(tl1, tl2) -> None:
    assert tl1.uid == tl2.uid and tl1.name == tl2.name
    assert tl1.elapsed == tl2.elapsed
    assert tl1.num_threads == tl2.num_threads
    assert tl1.node_mask_bits == tl2.node_mask_bits
    assert tl1.steal_policy == tl2.steal_policy
    assert tl1.tasks_executed == tl2.tasks_executed
    assert tl1.steals_local == tl2.steals_local
    assert tl1.steals_remote == tl2.steals_remote
    assert tl1.overhead == tl2.overhead
    assert np.array_equal(tl1.node_perf, tl2.node_perf, equal_nan=True)
    assert np.array_equal(tl1.node_busy, tl2.node_busy, equal_nan=True)
    assert _counters_tuple(tl1.counters) == _counters_tuple(tl2.counters)


def assert_results_identical(r1, r2) -> None:
    assert r1.total_time == r2.total_time
    assert len(r1.taskloops) == len(r2.taskloops)
    for tl1, tl2 in zip(r1.taskloops, r2.taskloops):
        assert_taskloop_identical(tl1, tl2)


def assert_contexts_identical(c1: RunContext, c2: RunContext) -> None:
    assert c1.trace.tasks == c2.trace.tasks
    assert c1.trace.steals == c2.trace.steals
    assert c1.trace.taskloops == c2.trace.taskloops
    assert np.array_equal(c1.states.busy_time, c2.states.busy_time)
    assert np.array_equal(c1.states.work_done, c2.states.work_done)
    assert np.array_equal(c1.states.rem, c2.states.rem)
    assert c1.sim.now == c2.sim.now


# ----------------------------------------------------------------------
# suite 0: the slowdown cache against the reference model, op by op
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["start", "finish", "offline", "online"]),
            st.integers(0, 63),
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 0.8, 2.5]),
            st.integers(0, 7),
            st.booleans(),
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_slowdown_cache_matches_reference_model(preset, ops):
    """Random starts, finishes and online flips straight on the core
    states, tasks mixing several contention exponents, several changes
    logged between refreshes: at every check the cached slowdowns,
    saturation and its scalars equal the reference model's from-scratch
    values bit for bit."""
    ctx = RunContext.create(PRESETS[preset](), seed=0)
    states, model, inc = ctx.states, ctx.interference, ctx.incremental
    cores, nodes = states.num_cores, states.num_nodes
    for i, (kind, core, mem_frac, gamma, node, check) in enumerate(ops):
        core %= cores
        if kind == "start" and not states.active[core]:
            weights = np.zeros(nodes)
            weights[node % nodes] = 1.0 - mem_frac / 2
            weights[(node + 1) % nodes] += mem_frac / 2
            states.start(core, body=1.0, overhead=0.0, mem_frac=mem_frac,
                         gamma=gamma, weights=weights, payload=None)
        elif kind == "finish" and states.active[core]:
            states.finish(core)
        elif kind in ("offline", "online"):
            online = states.online.copy()
            online[core] = kind == "online"
            states.set_online(online)
        if not check and i < len(ops) - 1:
            continue
        s_ref, sat_ref = model.slowdowns_and_saturation(states)
        s_inc, sat_inc = inc.slowdowns_and_saturation()
        assert s_inc.tobytes() == s_ref.tobytes()
        assert sat_inc.tobytes() == sat_ref.tobytes()
        assert inc.saturation_scalars() == (float(sat_ref.mean()), float(sat_ref.max()))


def _calm_weights(nodes: int, node: int, split: float) -> np.ndarray:
    weights = np.zeros(nodes)
    weights[node % nodes] = 1.0 - split
    weights[(node + 1) % nodes] += split
    return weights


@pytest.mark.parametrize("rows_exact", [True, False], ids=["logged-rows", "probe-false"])
@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    calm=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 63),
                st.floats(0.0, 0.05),
                st.sampled_from([0.0, 0.8, 2.5]),
                st.integers(0, 7),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=2,
        ),
        min_size=4,
        max_size=16,
    ),
    burst_at=st.integers(1, 3),
    hot_node=st.integers(0, 7),
)
def test_unsaturated_refreshes_match_reference_model(rows_exact, preset, calm, burst_at, hot_node):
    """Demand stays unsaturated over refreshes that each start or finish
    one or two cores (so an unsaturated refresh follows an unsaturated one
    and rewrites only the logged rows), then crosses into saturation and
    back: at every refresh the cached slowdowns and saturation equal the
    reference model's bit for bit.  With the row-reduce probe forced
    false, the same sequence runs on the every-row pass."""
    with mock.patch.object(
        incremental,
        "_row_reduce_matches_axis_reduce",
        incremental._row_reduce_matches_axis_reduce if rows_exact else lambda rows, cols: False,
    ):
        ctx = RunContext.create(PRESETS[preset](), seed=0)
    states, model, inc = ctx.states, ctx.interference, ctx.incremental
    cores, nodes = states.num_cores, states.num_nodes
    saturated = []

    def check() -> None:
        s_ref, sat_ref = model.slowdowns_and_saturation(states)
        s_inc, sat_inc = inc.slowdowns_and_saturation()
        assert s_inc.tobytes() == s_ref.tobytes()
        assert sat_inc.tobytes() == sat_ref.tobytes()
        saturated.append(bool(sat_ref.max() > 1.0))

    def flip(core, mem_frac, gamma, node, split) -> None:
        if states.active[core]:
            states.finish(core)
        else:
            states.start(core, body=1.0, overhead=0.0, mem_frac=mem_frac, gamma=gamma,
                         weights=_calm_weights(nodes, node, split), payload=None)

    for i, changes in enumerate(calm):
        if i == burst_at:
            # one memory-bound core after another on one node until it
            # saturates, then each one retired in turn
            hot = []
            for core in range(cores):
                if saturated[-1]:
                    break
                if states.active[core]:
                    states.finish(core)
                states.start(core, body=1.0, overhead=0.0, mem_frac=1.0, gamma=0.8,
                             weights=_calm_weights(nodes, hot_node, 0.0), payload=None)
                hot.append(core)
                check()
            assert saturated[-1]
            for core in hot:
                states.finish(core)
                check()
        for core, mem_frac, gamma, node, split in changes:
            flip(core % cores, mem_frac, gamma, node, split)
        check()
    # the unsaturated-after-unsaturated refresh ran, and so did saturation
    assert any(not a and not b for a, b in zip(saturated, saturated[1:]))
    assert any(saturated)


def test_numpy_probes_run_once_per_shape():
    """Both reduction probes depend on numpy and the matrix shape only:
    each runs once per shape in a process, not once per run."""
    probes = (
        incremental._padded_sum_matches_compacted,
        incremental._row_reduce_matches_axis_reduce,
    )
    for probe in probes:
        probe.cache_clear()
    for topology in (tiny_two_node(), dual_socket_small(), tiny_two_node(), dual_socket_small()):
        RunContext.create(topology, seed=0)
    for probe in probes:
        info = probe.cache_info()
        assert (info.misses, info.hits) == (2, 2)


# ----------------------------------------------------------------------
# suite 1: hypothesis task sets through the executor (both engines)
# ----------------------------------------------------------------------
@st.composite
def taskset_params(draw):
    return dict(
        preset=draw(st.sampled_from(sorted(PRESETS))),
        scheduler=draw(st.sampled_from(SCHEDULERS)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        num_tasks=draw(st.integers(min_value=1, max_value=24)),
        mem_frac=draw(st.floats(min_value=0.0, max_value=1.0)),
        reuse=draw(st.floats(min_value=0.0, max_value=1.0)),
        # gamma bounded so the contention penalty stays finite (the
        # documented caveat in repro.sim.incremental)
        gamma=draw(st.floats(min_value=0.0, max_value=4.0)),
        loops=draw(st.integers(min_value=1, max_value=3)),
        noisy=draw(st.booleans()),
    )


def _run_taskloops(engine: type[OpenMPRuntime], params: dict):
    noise = (
        NoiseParams(
            mean_interval=0.004,
            mean_duration=0.002,
            slow_factor=0.5,
            cores_fraction=0.3,
        )
        if params["noisy"]
        else None
    )
    ctx = RunContext.create(
        PRESETS[params["preset"]](),
        seed=params["seed"],
        trace=True,
        noise_params=noise,
    )
    sched = create_scheduler(params["scheduler"])
    sched.reset()
    executor = engine.executor_type(ctx)
    results = []
    # several encounters in one context: the all-idle reset between loops
    # and the PTT's cross-encounter learning both stay on the same bits
    for loop in range(params["loops"]):
        work = make_work(
            ctx,
            uid=f"equiv.loop{loop}",
            num_tasks=params["num_tasks"],
            total_iters=max(params["num_tasks"], 48),
            mem_frac=params["mem_frac"],
            reuse=params["reuse"],
            gamma=params["gamma"],
            work_seconds=0.004,
        )
        plan = sched.plan(work, ctx)
        result = executor.run(work, plan)
        sched.record(work, plan, result)
        results.append(result)
    return ctx, results


@settings(max_examples=120, deadline=None)
@given(taskset_params())
def test_taskset_byte_identical(params):
    """Arbitrary task sets: traces, completion times, counters, steals —
    all bitwise equal between the engines."""
    ctx_ref, res_ref = _run_taskloops(ORACLE, params)
    ctx_inc, res_inc = _run_taskloops(PRODUCTION, params)
    assert len(res_ref) == len(res_inc)
    for r1, r2 in zip(res_ref, res_inc):
        assert_taskloop_identical(r1, r2)
    assert_contexts_identical(ctx_ref, ctx_inc)


# ----------------------------------------------------------------------
# suite 2: seeded campaigns through the full runtime
# ----------------------------------------------------------------------
@st.composite
def campaign_params(draw):
    return dict(
        preset=draw(st.sampled_from(sorted(PRESETS))),
        scheduler=draw(st.sampled_from(SCHEDULERS)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        num_tasks=draw(st.integers(min_value=4, max_value=32)),
        timesteps=draw(st.integers(min_value=1, max_value=3)),
        imbalance=draw(st.sampled_from(["uniform", "linear", "clustered"])),
        noisy=draw(st.booleans()),
    )


def _run_campaign(engine: type[OpenMPRuntime], params: dict):
    app = make_synthetic(
        work_seconds=0.05,
        mem_frac=0.6,
        gamma=0.8,
        imbalance=params["imbalance"],
        imbalance_cv=0.3,
        num_tasks=params["num_tasks"],
        total_iters=params["num_tasks"] * 4,
        region_mib=32,
        timesteps=params["timesteps"],
    )
    runtime = engine(
        PRESETS[params["preset"]](),
        params["scheduler"],
        seed=params["seed"],
        trace=True,
        noise=(
            NoiseParams(mean_interval=0.01, mean_duration=0.004)
            if params["noisy"]
            else None
        ),
    )
    result = runtime.run_application(app)
    return runtime.last_ctx, result


@settings(max_examples=60, deadline=None)
@given(campaign_params())
def test_campaign_byte_identical(params):
    """Whole applications (timestep loops, serial phases, noise): the two
    engines produce the same run, bit for bit."""
    ctx_ref, res_ref = _run_campaign(ORACLE, params)
    ctx_inc, res_inc = _run_campaign(PRODUCTION, params)
    assert_results_identical(res_ref, res_inc)
    assert_contexts_identical(ctx_ref, ctx_inc)


# ----------------------------------------------------------------------
# suite 2b: dynamic-asymmetry campaigns (DVFS / throttle / co-tenant /
# core-offline timelines through the speed-mutation choke point)
# ----------------------------------------------------------------------
@st.composite
def asym_campaign_params(draw):
    return dict(
        preset=draw(st.sampled_from(sorted(PRESETS))),
        scheduler=draw(st.sampled_from(SCHEDULERS + ("ilan-adaptive",))),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        num_tasks=draw(st.integers(min_value=4, max_value=24)),
        timesteps=draw(st.integers(min_value=1, max_value=3)),
        asym=draw(st.sampled_from(sorted(ASYMMETRY_PRESETS))),
        asym_seed=draw(st.one_of(st.none(), st.integers(0, 100))),
        noisy=draw(st.booleans()),
    )


def _run_asym_campaign(engine: type[OpenMPRuntime], params: dict):
    app = make_synthetic(
        work_seconds=0.05,
        mem_frac=0.6,
        gamma=0.8,
        num_tasks=params["num_tasks"],
        total_iters=params["num_tasks"] * 4,
        region_mib=32,
        timesteps=params["timesteps"],
    )
    runtime = engine(
        PRESETS[params["preset"]](),
        params["scheduler"],
        seed=params["seed"],
        trace=True,
        noise=(
            NoiseParams(mean_interval=0.01, mean_duration=0.004)
            if params["noisy"]
            else None
        ),
        asym=ASYMMETRY_PRESETS[params["asym"]],
        asym_seed=params["asym_seed"],
    )
    result = runtime.run_application(app)
    return runtime.last_ctx, result


@settings(max_examples=60, deadline=None)
@given(asym_campaign_params())
def test_asym_campaign_byte_identical(params):
    """Seeded asymmetry timelines — every preset, all schedulers (incl.
    the drift-re-exploring one), noise on top: the incremental engine must
    track every mid-run speed mutation and offline flip bit for bit."""
    ctx_ref, res_ref = _run_asym_campaign(ORACLE, params)
    ctx_inc, res_inc = _run_asym_campaign(PRODUCTION, params)
    assert_results_identical(res_ref, res_inc)
    assert_contexts_identical(ctx_ref, ctx_inc)


def test_offline_while_core_occupied_byte_identical():
    """The hardest asymmetry case pinned explicitly: a core goes offline
    *while running a task* (frozen in place, resumed on re-online), with
    long outages relative to task length so the executor's wait path and
    the incremental engine's zeroed demand rows are both exercised."""
    spec = AsymmetrySpec(
        offline_interval=0.02, offline_duration=0.5, max_offline_fraction=0.45
    )
    per_engine = []
    for engine in (ORACLE, PRODUCTION):
        app = make_synthetic(
            work_seconds=0.2,
            mem_frac=0.6,
            gamma=0.8,
            num_tasks=8,
            total_iters=32,
            region_mib=32,
            timesteps=2,
        )
        runtime = engine(
            tiny_two_node(),
            "baseline",  # keeps every core occupied: outages hit busy cores
            seed=11,
            trace=True,
            asym=spec,
        )
        result = runtime.run_application(app)
        ctx = runtime.last_ctx
        assert ctx.asym is not None and ctx.asym.offline_episodes >= 1
        per_engine.append((ctx, result))
    assert_results_identical(per_engine[0][1], per_engine[1][1])
    assert_contexts_identical(per_engine[0][0], per_engine[1][0])


# ----------------------------------------------------------------------
# suite 3: lease-constrained runs through the experiment layer
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed_index=st.integers(min_value=0, max_value=50),
    lease=st.sampled_from([0b01, 0b10, 0b11, None]),
    timesteps=st.integers(min_value=1, max_value=2),
)
def test_leased_spec_byte_identical(seed_index, lease, timesteps):
    """RunSpec execution (the cache/service path), with and without a
    NUMA-node lease confining the scheduler."""
    spec = RunSpec(
        benchmark="matmul",
        scheduler="ilan",
        seed=derive_run_seed("matmul", "ilan", seed_index),
        timesteps=timesteps,
        noise=None,
        topology=dual_socket_small(),
        lease_bits=lease,
    )
    results = [
        execute_spec(spec, runtime_type=ReferenceRuntime),
        execute_spec(spec),
    ]
    assert_results_identical(results[0], results[1])


# ----------------------------------------------------------------------
# suite 4: fault-injected campaigns (transient failures + retry)
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed_count=st.integers(min_value=1, max_value=3),
    failures=st.integers(min_value=1, max_value=2),
)
def test_faulted_runs_byte_identical(seed_count, failures):
    """Transient runner faults + the retry a service worker would issue:
    the recomputed results match the reference engine bit for bit."""
    cfg = ExperimentConfig(seeds=seed_count, timesteps=1, with_noise=True)
    runner = Runner(cfg, topology=tiny_two_node())
    specs = runner.job_specs("matmul", "ilan", seeds=seed_count)
    remaining = [failures]

    def hook(_specs):
        if remaining[0] > 0:
            remaining[0] -= 1
            raise TransientRunnerError("injected fault")

    attempts = 0
    while True:
        attempts += 1
        try:
            results = runner.run_specs(specs, fault_hook=hook)
            break
        except TransientRunnerError:
            assert attempts <= failures  # must not fail forever
    per_engine = [
        [execute_spec(spec, runtime_type=ReferenceRuntime) for spec in specs],
        results,
    ]
    assert len(per_engine[0]) == len(per_engine[1]) == seed_count
    for r1, r2 in zip(per_engine[0], per_engine[1]):
        assert_results_identical(r1, r2)


# ----------------------------------------------------------------------
# suite 5: the paper's machine and benchmarks, as campaigns run them
# ----------------------------------------------------------------------
PAPER_SCHEDULERS = ("baseline", "ilan", "ilan-nomold", "ilan-adaptive", "worksharing")


def test_paper_grid_byte_identical():
    """Every paper benchmark (NPB, Matmul, LULESH models) under every
    paper scheduler on the 64-core Zen 4, with the campaigns' default
    noise: production :func:`execute_spec` and the oracle serialise to
    the same run-cache bytes."""
    topology = zen4_9354()
    for benchmark in PAPER_ORDER:
        for scheduler in PAPER_SCHEDULERS:
            spec = RunSpec(
                benchmark=benchmark,
                scheduler=scheduler,
                seed=derive_run_seed(benchmark, scheduler, 0),
                timesteps=1,
                noise=default_noise(),
                topology=topology,
            )
            oracle = execute_spec(spec, runtime_type=ReferenceRuntime)
            production = execute_spec(spec)
            assert run_to_json(production) == run_to_json(oracle), (
                benchmark,
                scheduler,
            )


# ----------------------------------------------------------------------
# suite 6: a wide machine, where the oracle's full recompute costs most
# ----------------------------------------------------------------------
def _wide_machine() -> MachineTopology:
    """1024 cores over 64 NUMA nodes: 8 sockets x 8 nodes x 2 CCDs x 8."""
    return MachineTopology.build(
        name="wide-1024",
        num_sockets=8,
        nodes_per_socket=8,
        ccds_per_node=2,
        cores_per_ccd=8,
        l3_bytes=32 * MIB,
        mem_bytes_per_node=32 * GIB,
        mem_bandwidth_per_node=40.0 * GIB,
    )


@pytest.mark.parametrize("scheduler", ["baseline", "ilan"])
def test_wide_machine_byte_identical(scheduler):
    """A clustered-imbalance synthetic loop of 1024 tasks on 64 nodes:
    every taskloop field is equal between the engines, bit for bit."""
    per_engine = []
    for engine in (ORACLE, PRODUCTION):
        app = make_synthetic(
            name="wide",
            work_seconds=2.0,
            mem_frac=0.6,
            blocked_fraction=1.0,
            reuse=0.3,
            gamma=0.8,
            imbalance="clustered",
            imbalance_cv=0.35,
            num_tasks=1024,
            total_iters=1024 * 8,
            region_mib=2048,
            timesteps=1,
        )
        runtime = engine(_wide_machine(), scheduler, seed=0)
        per_engine.append(runtime.run_application(app))
    assert_results_identical(per_engine[0], per_engine[1])
