"""Tests for the persistent content-addressed run cache."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.counters.metrics import TaskloopCounters
from repro.exp.cache import (
    _READ_BYTES,
    SCHEMA_VERSION,
    ResultCache,
    _encode_entry,
    _entry_header,
    _read_file,
    decode_run,
    default_cache_dir,
    encode_run,
    run_key,
    run_to_json,
    topology_fingerprint,
)
from repro.exp.runner import (
    ExperimentConfig,
    Runner,
    RunSpec,
    default_noise,
    execute_spec,
)
from repro.interference.noise import NoiseParams
from repro.interference.timeline import AsymmetrySpec
from repro.runtime.overhead import OverheadLedger
from repro.runtime.results import AppRunResult, TaskloopResult
from repro.topology.presets import single_node, tiny_two_node, zen4_9354


def synthetic_run(seed: int = 7) -> AppRunResult:
    """A hand-built run exercising every serialised field, NaN included."""
    ledger = OverheadLedger()
    ledger.charge("task_create", 1.25e-6, count=5)
    ledger.charge("steal_remote", 2.5e-6, count=1)
    loop = TaskloopResult(
        uid="app.loop",
        name="loop",
        elapsed=0.123456789012345,
        num_threads=4,
        node_mask_bits=0b11,
        steal_policy="hier",
        overhead=ledger,
        node_perf=np.array([1.5e9, float("nan")]),
        node_busy=np.array([0.25, 0.0]),
        tasks_executed=32,
        steals_local=3,
        steals_remote=1,
        counters=TaskloopCounters(
            uid="app.loop", elapsed=0.1, sat_time_integral=0.05, peak_saturation=1.2,
            bytes_total=1e9, bytes_remote=2e8, busy_time=0.4, idle_time=0.1,
        ),
    )
    return AppRunResult(
        app_name="app", scheduler="ilan", seed=seed,
        total_time=0.987654321098765, taskloops=[loop],
    )


def real_run() -> AppRunResult:
    spec = RunSpec(
        benchmark="matmul", scheduler="ilan", seed=11, timesteps=2,
        noise=default_noise(), topology=tiny_two_node(),
    )
    return execute_spec(spec)


BASE_KEY_KWARGS = dict(
    benchmark="matmul",
    scheduler="ilan",
    seed=3,
    timesteps=5,
    noise=default_noise(),
    topology=tiny_two_node(),
)


class TestRunKey:
    def test_deterministic(self):
        assert run_key(**BASE_KEY_KWARGS) == run_key(**BASE_KEY_KWARGS)

    @pytest.mark.parametrize(
        "change",
        [
            {"benchmark": "cg"},
            {"scheduler": "baseline"},
            {"seed": 4},
            {"timesteps": 6},
            {"timesteps": None},
            {"noise": None},
            {"noise": NoiseParams(mean_interval=0.01)},
            {"topology": single_node(4)},
            {"scheduler_params": {"granularity": 4}},
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert run_key(**{**BASE_KEY_KWARGS, **change}) != run_key(**BASE_KEY_KWARGS)

    def test_accepts_precomputed_fingerprint(self):
        fp = topology_fingerprint(tiny_two_node())
        assert run_key(**{**BASE_KEY_KWARGS, "topology": fp}) == run_key(**BASE_KEY_KWARGS)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"noise": NoiseParams(mean_interval=1.0)}, {"noise": NoiseParams(mean_interval=1)}),
            ({"timesteps": 1}, {"timesteps": True}),
            ({"scheduler_params": {"lease": 1}}, {"scheduler_params": {"lease": True}}),
        ],
        ids=["noise-int-float", "timesteps-int-bool", "params-int-bool"],
    )
    def test_equal_values_that_encode_differently_keep_distinct_keys(self, first, second):
        """Fields that compare equal but serialise differently (``1`` and
        ``1.0``, ``1`` and ``True``) keep their own keys, in either order."""
        a = run_key(**{**BASE_KEY_KWARGS, **first})
        b = run_key(**{**BASE_KEY_KWARGS, **second})
        assert a != b
        assert run_key(**{**BASE_KEY_KWARGS, **first}) == a
        assert run_key(**{**BASE_KEY_KWARGS, **second}) == b

    def test_seed_types_rejected_by_json_still_raise(self):
        with pytest.raises(TypeError):
            run_key(**{**BASE_KEY_KWARGS, "seed": np.int64(3)})


class TestAsymRunKey:
    """The asymmetry axis enters the cache key only when non-default."""

    def _spec(self, **kw):
        return RunSpec(
            benchmark="matmul", scheduler="ilan", seed=3, timesteps=2,
            noise=None, topology=tiny_two_node(), **kw,
        )

    def test_default_keeps_pre_asymmetry_key(self):
        """Back-compat: caches written before the asymmetry axis existed
        stay valid — an absent or disabled spec leaves the key unchanged."""
        base = self._spec().key()
        assert self._spec(asym=None, asym_seed=None).key() == base
        assert self._spec(asym=AsymmetrySpec()).key() == base

    def test_enabled_spec_changes_key(self):
        base = self._spec().key()
        asym = self._spec(asym=AsymmetrySpec(dvfs_interval=0.2)).key()
        assert asym != base

    def test_different_specs_different_keys(self):
        a = self._spec(asym=AsymmetrySpec(dvfs_interval=0.2)).key()
        b = self._spec(asym=AsymmetrySpec(dvfs_interval=0.3)).key()
        assert a != b

    def test_spelling_invariant(self):
        """Two parse spellings of the same timeline share one cache entry."""
        a = self._spec(asym=AsymmetrySpec.parse("dvfs_interval=0.200")).key()
        b = self._spec(asym=AsymmetrySpec.parse("dvfs_interval=0.2")).key()
        assert a == b

    def test_asym_seed_changes_key_only_when_set(self):
        base = self._spec().key()
        assert self._spec(asym_seed=None).key() == base
        assert self._spec(asym_seed=7).key() != base
        assert self._spec(asym_seed=7).key() != self._spec(asym_seed=8).key()


class TestPinnedRunKey:
    """Literal digests: every cache entry already on disk must keep hitting.

    A change to the key derivation (a new ``RunSpec`` field entering the
    key unconditionally, a renamed parameter) silently turns every
    existing cache — including a warm service fleet's — into misses.
    """

    def _spec(self, **config):
        runner = Runner(
            ExperimentConfig(**{"seeds": 1, "timesteps": 2, **config}),
            topology=zen4_9354(),
        )
        return runner, runner.job_specs("cg", "ilan", seeds=1)[0]

    def test_unleased_key(self):
        runner, spec = self._spec()
        assert spec.key(runner.topology_fp) == (
            "eb9c5cac91a7132d5c40a3920d87314a00ebe516af0105e35065dc8befec3b78"
        )

    def test_leased_key(self):
        runner, spec = self._spec()
        leased = dataclasses.replace(spec, lease_bits=0b11)
        assert leased.key(runner.topology_fp) == (
            "fc45b6c6ae2e85a297f54e8396c976484f60e00e3a6b06782f9fea9ee36a2a48"
        )

    def test_noiseless_key(self):
        runner, spec = self._spec(with_noise=False)
        assert spec.key(runner.topology_fp) == (
            "4fc9fd37f8d65e8df2a1b9949347522503d9b8e27bb5eb7c4ae30e7a27ec45aa"
        )

    def test_model_default_timesteps_key(self):
        runner, spec = self._spec(timesteps=None)
        assert spec.key(runner.topology_fp) == (
            "2adf5555e2ed2dd7583d247ff8a23f14d93f10dfab5cd170c6a832d2d92fe6e0"
        )

    def test_asymmetric_key(self):
        runner, spec = self._spec(asym_spec="dvfs_interval=0.2", asym_seed=7)
        assert spec.key(runner.topology_fp) == (
            "d3ff963e2b05965525b0222a18733cc64b2f40f69f6e8be9a9e3bce590830a3d"
        )

    def test_leased_asymmetric_key(self):
        runner, spec = self._spec(asym_spec="dvfs_interval=0.2", asym_seed=7)
        leased = dataclasses.replace(spec, lease_bits=0b11)
        assert leased.key(runner.topology_fp) == (
            "a2275a2d878b5a7ce992a7abfa72be2b741b1c19696051b4381eebf385a87aa5"
        )


class TestTopologyFingerprint:
    def test_name_excluded(self, tiny):
        import dataclasses

        renamed = dataclasses.replace(tiny, name="other-name")
        assert topology_fingerprint(renamed) == topology_fingerprint(tiny)

    def test_structure_included(self, tiny, uma):
        assert topology_fingerprint(tiny) != topology_fingerprint(uma)


class TestRunCodec:
    @pytest.mark.parametrize("run", [synthetic_run(), real_run()],
                             ids=["synthetic", "simulated"])
    def test_lossless_roundtrip(self, run):
        decoded = decode_run(encode_run(run))
        assert run_to_json(decoded) == run_to_json(run)
        assert decoded.seed == run.seed
        assert decoded.total_time == run.total_time
        assert len(decoded.taskloops) == len(run.taskloops)
        a, b = run.taskloops[0], decoded.taskloops[0]
        assert np.array_equal(a.node_perf, b.node_perf, equal_nan=True)
        assert a.overhead.total == b.overhead.total
        assert a.overhead.counts == b.overhead.counts

    def test_none_counters_roundtrip(self):
        run = synthetic_run()
        run.taskloops[0].counters = None
        decoded = decode_run(encode_run(run))
        assert decoded.taskloops[0].counters is None


class TestResultCache:
    def test_miss_then_hit(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        assert tmp_cache.get(key) is None
        run = synthetic_run()
        tmp_cache.put(key, run)
        got = tmp_cache.get(key)
        assert got is not None
        assert run_to_json(got) == run_to_json(run)
        assert tmp_cache.stats.misses == 1
        assert tmp_cache.stats.hits == 1
        assert tmp_cache.stats.stores == 1

    def test_contains_len_keys_clear(self, tmp_cache):
        keys = [run_key(**{**BASE_KEY_KWARGS, "seed": s}) for s in range(3)]
        for k in keys:
            tmp_cache.put(k, synthetic_run())
        assert len(tmp_cache) == 3
        assert all(k in tmp_cache for k in keys)
        assert sorted(tmp_cache.keys()) == sorted(keys)
        assert tmp_cache.clear() == 3
        assert len(tmp_cache) == 0

    def test_corrupt_entry_is_miss_and_removed(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        path = tmp_cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"schema": %d, "key": "%s", "run": {"app_na' % (SCHEMA_VERSION, key))
        assert tmp_cache.get(key) is None
        assert not path.exists()
        assert tmp_cache.stats.invalidated == 1
        # the slot is reusable afterwards
        tmp_cache.put(key, synthetic_run())
        assert tmp_cache.get(key) is not None

    def test_stale_schema_is_miss(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        tmp_cache.put(key, synthetic_run())
        path = tmp_cache.path_for(key)
        header_raw, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_raw)
        header["schema"] = SCHEMA_VERSION - 1
        stale = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_bytes(stale.encode() + b"\n" + payload)
        assert tmp_cache.get(key) is None
        assert not path.exists()

    def test_key_mismatch_is_miss(self, tmp_cache):
        """An entry copied to the wrong address must not be served."""
        key_a = run_key(**BASE_KEY_KWARGS)
        key_b = run_key(**{**BASE_KEY_KWARGS, "seed": 99})
        tmp_cache.put(key_a, synthetic_run())
        path_b = tmp_cache.path_for(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(tmp_cache.path_for(key_a).read_bytes())
        assert tmp_cache.get(key_b) is None

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_directory_at_entry_path_is_a_plain_miss(self, tmp_cache):
        """An unreadable entry is a miss, not damage: nothing is
        quarantined and no file descriptor leaks."""
        key = run_key(**BASE_KEY_KWARGS)
        path = tmp_cache.path_for(key)
        path.mkdir(parents=True)
        open_fds = len(os.listdir("/proc/self/fd"))
        assert tmp_cache.get(key) is None
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert tmp_cache.stats.misses == 1
        assert tmp_cache.stats.hits == 0
        assert tmp_cache.stats.quarantined == 0
        assert tmp_cache.stats.invalidated == 0
        assert not tmp_cache.quarantine_root.exists()
        assert path.is_dir()

    @pytest.mark.parametrize(
        "size", [0, 1, _READ_BYTES - 1, _READ_BYTES, _READ_BYTES + 1, 3 * _READ_BYTES]
    )
    def test_read_file_around_chunk_boundaries(self, tmp_path, size):
        data = bytes(i % 251 for i in range(size))
        path = tmp_path / "entry"
        path.write_bytes(data)
        assert _read_file(str(path)) == data

    def test_put_leaves_no_temp_files(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        tmp_cache.put(key, synthetic_run())
        leftovers = [p for p in tmp_cache.root.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_garbage_bytes_recovered(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        path = tmp_cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00\xff not json at all")
        assert tmp_cache.get(key) is None
        tmp_cache.put(key, synthetic_run())
        assert tmp_cache.get(key) is not None


class TestQuarantine:
    """Verification failures move entries aside instead of deleting them."""

    def _poison(self, cache, key):
        path = cache.path_for(key)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        return path

    def test_checksum_mismatch_is_quarantined_not_served(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        tmp_cache.put(key, synthetic_run())
        path = self._poison(tmp_cache, key)
        assert tmp_cache.get(key) is None
        assert not path.exists()
        assert tmp_cache.stats.quarantined == 1
        assert tmp_cache.stats.invalidated == 1
        assert len(list(tmp_cache.quarantine_root.iterdir())) == 1

    def test_quarantined_entry_is_recomputable(self, tmp_cache):
        """After quarantine, the slot accepts a fresh identical entry."""
        key = run_key(**BASE_KEY_KWARGS)
        run = synthetic_run()
        tmp_cache.put(key, run)
        self._poison(tmp_cache, key)
        assert tmp_cache.get(key) is None
        tmp_cache.put(key, run)
        got = tmp_cache.get(key)
        assert got is not None
        assert run_to_json(got) == run_to_json(run)
        # the forensic copy survives the recompute
        assert len(list(tmp_cache.quarantine_root.iterdir())) == 1

    def test_quarantine_names_never_collide(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        for _ in range(3):
            tmp_cache.put(key, synthetic_run())
            self._poison(tmp_cache, key)
            assert tmp_cache.get(key) is None
        assert len(list(tmp_cache.quarantine_root.iterdir())) == 3

    def test_quarantine_invisible_to_keys_and_len(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        tmp_cache.put(key, synthetic_run())
        self._poison(tmp_cache, key)
        tmp_cache.get(key)
        assert list(tmp_cache.keys()) == []
        assert len(tmp_cache) == 0
        assert key not in tmp_cache

    def test_truncation_is_quarantined(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        tmp_cache.put(key, synthetic_run())
        path = tmp_cache.path_for(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert tmp_cache.get(key) is None
        assert len(list(tmp_cache.quarantine_root.iterdir())) == 1


def _header_variants(key: str, digest: str) -> dict[str, bytes]:
    """Header lines that name the entry's key, schema and payload digest
    but are not the line the writer writes."""
    fields = {"key": key, "schema": SCHEMA_VERSION, "sha256": digest}
    compact = {"sort_keys": True, "separators": (",", ":")}
    variants = {
        "reordered-keys": json.dumps(
            {"sha256": digest, "schema": SCHEMA_VERSION, "key": key},
            separators=(",", ":"),
        ),
        "space-after-separator": json.dumps(
            fields, sort_keys=True, separators=(", ", ":")
        ),
        "uppercase-digest": json.dumps({**fields, "sha256": digest.upper()}, **compact),
        "extra-field": json.dumps({**fields, "note": "x"}, **compact),
        "short-digest": json.dumps({**fields, "sha256": digest[:-1]}, **compact),
    }
    return {name: line.encode() for name, line in variants.items()}


class TestHeaderFrame:
    """The reader accepts a header only as the exact line the writer
    writes: one definition (``_entry_header``) frames and verifies."""

    SPEC = RunSpec(
        benchmark="matmul", scheduler="baseline", seed=5, timesteps=1,
        noise=None, topology=tiny_two_node(),
    )

    def test_writer_header_is_the_canonical_json_line(self):
        """``_encode_entry`` frames with ``_entry_header``, whose line is
        the canonical JSON of ``{key, schema, sha256}`` that earlier
        writers wrote (so their entries still verify)."""
        key = run_key(**BASE_KEY_KWARGS)
        header, payload = _encode_entry(key, synthetic_run()).split(b"\n", 1)
        digest = hashlib.sha256(payload).hexdigest()
        assert header == _entry_header(key, digest)
        assert header == json.dumps(
            {"schema": SCHEMA_VERSION, "key": key, "sha256": digest},
            sort_keys=True, separators=(",", ":"),
        ).encode()

    @pytest.mark.parametrize("key", ['say "hi"', "back\\slash", "naïve-调度"])
    def test_header_escapes_keys_like_the_canonical_encoder(self, key):
        digest = "0" * 64
        assert _entry_header(key, digest) == json.dumps(
            {"key": key, "schema": SCHEMA_VERSION, "sha256": digest},
            sort_keys=True, separators=(",", ":"),
        ).encode()

    def test_fresh_put_reads_back_as_a_verified_hit(self, tmp_cache):
        key = run_key(**BASE_KEY_KWARGS)
        run = synthetic_run()
        tmp_cache.put(key, run)
        got = tmp_cache.get(key)
        assert got is not None and run_to_json(got) == run_to_json(run)
        assert tmp_cache.stats.hits == 1
        assert tmp_cache.stats.invalidated == 0

    @pytest.mark.parametrize(
        "variant", sorted(_header_variants("k", "0" * 64))
    )
    def test_non_canonical_header_is_quarantined_and_recomputed(
        self, tiny, tmp_cache, variant
    ):
        runner = Runner(ExperimentConfig(seeds=1), topology=tiny, cache=tmp_cache)
        [expected] = runner.run_specs([self.SPEC])
        key = self.SPEC.key(runner.topology_fp)
        path = tmp_cache.path_for(key)
        header, payload = path.read_bytes().split(b"\n", 1)
        line = _header_variants(key, hashlib.sha256(payload).hexdigest())[variant]
        assert line != header
        path.write_bytes(line + b"\n" + payload)

        [recomputed] = runner.run_specs([self.SPEC])
        assert run_to_json(recomputed) == run_to_json(expected)
        assert tmp_cache.stats.quarantined == 1
        [moved] = tmp_cache.quarantine_root.iterdir()
        assert moved.read_bytes().startswith(line + b"\n")
        # the recomputed run was stored afresh and now verifies
        assert path.read_bytes().split(b"\n", 1)[0] == header
        hits = tmp_cache.stats.hits
        assert tmp_cache.get(key) is not None
        assert tmp_cache.stats.hits == hits + 1


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "runs"
