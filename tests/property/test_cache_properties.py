"""Property-based tests: cache-key injectivity and persistence losslessness."""

import dataclasses
import hashlib
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.counters.metrics import TaskloopCounters
from repro.exp.cache import (
    SCHEMA_VERSION,
    decode_run,
    encode_run,
    run_key,
    run_to_json,
)
from repro.exp.figures import OverheadRow, SpeedupRow, ThreadsRow, VariabilityRow
from repro.exp.persistence import load_results, save_results
from repro.exp.runner import ExperimentConfig, Runner, RunSpec, default_noise
from repro.interference.noise import NoiseParams
from repro.interference.timeline import AsymmetrySpec
from repro.runtime.overhead import OverheadLedger
from repro.runtime.results import AppRunResult, TaskloopResult
from repro.topology.presets import tiny_two_node

_TOPO_FP = "0" * 64  # a fixed pre-computed fingerprint; keys only mix it in

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


noise_params = st.one_of(
    st.none(),
    st.builds(
        NoiseParams,
        mean_interval=positive,
        mean_duration=positive,
        slow_factor=st.floats(min_value=0.01, max_value=0.99),
        cores_fraction=st.floats(min_value=0.01, max_value=1.0),
    ),
)

_FIELD_STRATEGIES = {
    "benchmark": st.sampled_from(["ft", "bt", "cg", "lu", "sp", "matmul", "lulesh"]),
    "scheduler": st.sampled_from(["baseline", "ilan", "ilan-nomold", "worksharing"]),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "timesteps": st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
    "noise": noise_params,
}

key_configs = st.fixed_dictionaries(_FIELD_STRATEGIES)


@settings(max_examples=80)
@given(a=key_configs, b=key_configs)
def test_key_equality_iff_config_equality(a, b):
    """Keys collide exactly when the full configuration is identical."""
    key_a = run_key(topology=_TOPO_FP, **a)
    key_b = run_key(topology=_TOPO_FP, **b)
    assert (key_a == key_b) == (a == b)


@settings(max_examples=60, suppress_health_check=[HealthCheck.large_base_example])
@given(cfg=key_configs, data=st.data())
def test_single_field_perturbation_changes_key(cfg, data):
    """Any changed config field yields a different key (injectivity)."""
    field = data.draw(st.sampled_from(sorted(cfg)), label="perturbed field")
    value = data.draw(
        _FIELD_STRATEGIES[field].filter(lambda v: v != cfg[field]),
        label="replacement value",
    )
    perturbed = {**cfg, field: value}
    assert run_key(topology=_TOPO_FP, **perturbed) != run_key(topology=_TOPO_FP, **cfg)


def _oracle_key(*, benchmark, scheduler, seed, timesteps, noise, topology,
                scheduler_params):
    """The documented key: SHA-256 of the canonical JSON of the full payload."""
    payload = {
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark,
        "scheduler": scheduler,
        "scheduler_params": scheduler_params,
        "seed": seed,
        "timesteps": timesteps,
        "noise": dataclasses.asdict(noise) if noise is not None else None,
        "topology": topology,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: cell names, including JSON-escaped quotes and backslashes and non-ASCII
_names = st.one_of(
    st.sampled_from(["cg", "ilan", 'say "hi"', "back\\slash", "naïve", "调度器"]),
    st.text(max_size=12),
)
_param_values = st.one_of(
    st.integers(), st.booleans(), st.none(), st.text(max_size=8),
    st.floats(allow_nan=False),
)


@settings(max_examples=150)
@given(
    benchmark=_names,
    scheduler=_names,
    scheduler_params=st.dictionaries(st.text(max_size=8), _param_values, max_size=3),
    timesteps=st.one_of(st.none(), st.integers()),
    noise=noise_params,
    topology=st.sampled_from([_TOPO_FP, "f" * 64]),
    seeds=st.lists(st.integers(), min_size=1, max_size=4),
)
def test_key_matches_canonical_payload_oracle(seeds, **cell):
    """Every key is the hash of the documented payload, however many
    seeds share one cell (memoised state never changes a digest)."""
    for seed in seeds:
        assert run_key(seed=seed, **cell) == _oracle_key(seed=seed, **cell)


# ----------------------------------------------------------------------
# the keys Runner.run_specs and Runner.cells derive (one frame per stretch)
# ----------------------------------------------------------------------
_TOPO = tiny_two_node()

#: each field's values; the groups ``1``/``True``/``1.0`` and the two
#: ``mean_interval`` noises compare equal but encode differently, and the
#: two default noises and the two dvfs spellings are equal objects that
#: encode alike
_SPEC_FIELDS = {
    "benchmark": ["matmul", "cg"],
    "scheduler": ["ilan", "baseline"],
    "timesteps": [None, 1, True, 1.0, 2],
    "noise": [
        None, default_noise(), default_noise(),
        NoiseParams(mean_interval=1), NoiseParams(mean_interval=1.0),
    ],
    "lease_bits": [None, 1, True, 3],
    "asym": [
        None, AsymmetrySpec(), AsymmetrySpec(dvfs_interval=0.2),
        AsymmetrySpec.parse("dvfs_interval=0.200"),
    ],
    "asym_seed": [None, 1, True, 1.0, 7],
}
_seeds = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0, 1, True])
)


@st.composite
def spec_batches(draw):
    """Specs in run order: each switches a drawn subset of its
    predecessor's fields (interleaving cells, leases, asymmetry, noise
    and timesteps) and draws a seed."""
    fields = {name: draw(st.sampled_from(values)) for name, values in _SPEC_FIELDS.items()}
    batch = [RunSpec(seed=draw(_seeds), topology=_TOPO, **fields)]
    for _ in range(draw(st.integers(min_value=0, max_value=11))):
        for name in draw(st.sets(st.sampled_from(sorted(_SPEC_FIELDS)))):
            fields[name] = draw(st.sampled_from(_SPEC_FIELDS[name]))
        batch.append(RunSpec(seed=draw(_seeds), topology=_TOPO, **fields))
    return batch


def _oracle_spec_key(spec, topology_fp):
    """The documented key of a spec: lease, enabled asymmetry and asym
    seed enter ``scheduler_params`` only when set."""
    params = {}
    if spec.lease_bits is not None:
        params["lease"] = spec.lease_bits
    if spec.asym is not None and spec.asym.enabled:
        params["asym"] = spec.asym.describe()
    if spec.asym_seed is not None:
        params["asym_seed"] = spec.asym_seed
    return _oracle_key(
        benchmark=spec.benchmark, scheduler=spec.scheduler, seed=spec.seed,
        timesteps=spec.timesteps, noise=spec.noise, topology=topology_fp,
        scheduler_params=params,
    )


class _KeyRunner(Runner):
    """A runner whose "result" of each run is the key it derived for it."""

    def _execute(self, by_key):
        return {key: key for key in by_key}


@settings(max_examples=150)
@given(batch=spec_batches())
def test_run_specs_keys_match_spec_key_and_oracle(batch):
    """Every key ``run_specs`` derives, frames shared or not, is the
    spec's own key and the hash of its documented payload: a value that
    compares equal to its predecessor's but encodes differently never
    reuses its frame."""
    runner = _KeyRunner(ExperimentConfig(seeds=1), topology=_TOPO)
    fp = runner.topology_fp
    keys = runner.run_specs(batch)
    assert keys == [spec.key(fp) for spec in batch]
    assert keys == [_oracle_spec_key(spec, fp) for spec in batch]


@settings(max_examples=60)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(["matmul", "cg", "ft"]),
                  st.sampled_from(["ilan", "baseline"])),
        min_size=1, max_size=5,
    ),
    seeds=st.integers(min_value=1, max_value=3),
    timesteps=st.sampled_from([None, 1, True, 2]),
    with_noise=st.booleans(),
    asym_spec=st.sampled_from([None, "dvfs_interval=0.2"]),
    asym_seed=st.sampled_from([None, 1, True]),
)
def test_cells_keys_match_spec_key_and_oracle(pairs, **config):
    """Every key ``cells`` derives for interleaved cells is the key of
    the matching ``job_specs`` spec and the hash of its documented
    payload."""
    runner = _KeyRunner(ExperimentConfig(**config), topology=_TOPO)
    fp = runner.topology_fp
    for pair, cell in runner.cells(pairs).items():
        specs = runner.job_specs(*pair)
        assert cell.runs == [spec.key(fp) for spec in specs]
        assert cell.runs == [_oracle_spec_key(spec, fp) for spec in specs]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_key_stable_across_topology_value_and_fingerprint(seed):
    topo = tiny_two_node()
    from repro.exp.cache import topology_fingerprint

    by_value = run_key(
        benchmark="cg", scheduler="ilan", seed=seed, timesteps=None, noise=None,
        topology=topo,
    )
    by_fp = run_key(
        benchmark="cg", scheduler="ilan", seed=seed, timesteps=None, noise=None,
        topology=topology_fingerprint(topo),
    )
    assert by_value == by_fp


# ----------------------------------------------------------------------
# save_results / load_results losslessness over every figure row type
# ----------------------------------------------------------------------
row_strategies = st.one_of(
    st.builds(
        SpeedupRow,
        benchmark=st.sampled_from(["ft", "cg", "sp"]),
        scheduler=st.sampled_from(["ilan", "ilan-nomold"]),
        baseline_mean=finite,
        baseline_std=finite,
        sched_mean=finite,
        sched_std=finite,
        speedup=finite,
    ),
    st.builds(
        ThreadsRow,
        benchmark=st.sampled_from(["ft", "cg"]),
        avg_threads=finite,
        max_threads=st.integers(min_value=1, max_value=1024),
    ),
    st.builds(
        OverheadRow,
        benchmark=st.sampled_from(["ft", "cg"]),
        baseline_overhead=finite,
        ilan_overhead=finite,
        normalized=finite,
    ),
    st.builds(
        VariabilityRow,
        benchmark=st.sampled_from(["ft", "cg"]),
        baseline_std=finite,
        ilan_std=finite,
        baseline_rel_std=finite,
        ilan_rel_std=finite,
    ),
)


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(row_strategies, min_size=1, max_size=6))
def test_row_roundtrip_lossless(rows, tmp_path):
    """Every figure-row type survives save/load bit-exactly."""
    loaded = load_results(save_results(tmp_path / "rows.json", rows))
    assert loaded == rows
    for orig, back in zip(rows, loaded):
        assert type(back) is type(orig)
        for f in dataclasses.fields(orig):
            assert getattr(back, f.name) == getattr(orig, f.name)


# ----------------------------------------------------------------------
# encode_run / decode_run losslessness (NaN included)
# ----------------------------------------------------------------------
maybe_nan = st.floats(allow_nan=True, allow_infinity=False, width=64)


@st.composite
def app_runs(draw):
    n_loops = draw(st.integers(min_value=0, max_value=3))
    loops = []
    for i in range(n_loops):
        ledger = OverheadLedger()
        ledger.charge("dequeue", draw(positive), count=draw(st.integers(1, 50)))
        loops.append(
            TaskloopResult(
                uid=f"app.loop{i}",
                name=f"loop{i}",
                elapsed=draw(positive),
                num_threads=draw(st.integers(1, 64)),
                node_mask_bits=draw(st.integers(0, 2**8 - 1)),
                steal_policy=draw(st.sampled_from(["hier", "random", "none"])),
                overhead=ledger,
                node_perf=np.array(draw(st.lists(maybe_nan, min_size=1, max_size=4))),
                node_busy=np.array(draw(st.lists(finite, min_size=1, max_size=4))),
                tasks_executed=draw(st.integers(0, 10_000)),
                steals_local=draw(st.integers(0, 1000)),
                steals_remote=draw(st.integers(0, 1000)),
                counters=draw(
                    st.one_of(
                        st.none(),
                        st.builds(
                            TaskloopCounters,
                            uid=st.just(f"app.loop{i}"),
                            elapsed=finite,
                            sat_time_integral=finite,
                            peak_saturation=finite,
                            bytes_total=finite,
                            bytes_remote=finite,
                            busy_time=finite,
                            idle_time=finite,
                        ),
                    )
                ),
            )
        )
    return AppRunResult(
        app_name=draw(st.sampled_from(["cg", "sp", "matmul"])),
        scheduler=draw(st.sampled_from(["baseline", "ilan"])),
        seed=draw(st.integers(0, 2**32 - 1)),
        total_time=draw(finite),
        taskloops=loops,
    )


@settings(max_examples=60)
@given(run=app_runs())
def test_run_codec_roundtrip_lossless(run):
    decoded = decode_run(encode_run(run))
    assert run_to_json(decoded) == run_to_json(run)
    # and a second trip is a fixed point (NaN-safe comparison via canonical text)
    assert run_to_json(decode_run(encode_run(decoded))) == run_to_json(run)
