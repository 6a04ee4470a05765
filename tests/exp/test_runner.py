"""Unit tests for the experiment runner."""

import sys
import threading

import pytest

from repro.errors import ExperimentError
from repro.exp.cache import ResultCache, _key_frame
from repro.exp.runner import (
    CellResult,
    ExperimentConfig,
    Runner,
    default_noise,
    derive_run_seed,
)


@pytest.fixture
def runner(tiny):
    return Runner(ExperimentConfig(seeds=2, timesteps=2, with_noise=False), topology=tiny)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ExperimentConfig()
        assert cfg.seeds == 30
        assert cfg.with_noise
        assert cfg.jobs == 1
        assert cfg.cache_dir is None

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "5")
        monkeypatch.setenv("REPRO_ITERS", "10")
        cfg = ExperimentConfig.from_env()
        assert cfg.seeds == 5
        assert cfg.timesteps == 10

    def test_default_noise_params(self):
        noise = default_noise()
        assert noise.enabled
        assert 0 < noise.slow_factor < 1


class TestDerivedSeeds:
    def test_stable(self):
        assert derive_run_seed("matmul", "baseline", 0) == derive_run_seed(
            "matmul", "baseline", 0
        )

    def test_distinct_per_cell_and_index(self):
        seeds = {
            derive_run_seed(bench, sched, i)
            for bench in ("matmul", "cg")
            for sched in ("baseline", "ilan")
            for i in range(5)
        }
        assert len(seeds) == 2 * 2 * 5

    def test_negative_index_rejected(self):
        with pytest.raises(ExperimentError):
            derive_run_seed("matmul", "baseline", -1)

    def test_memo_keeps_float_index_rejected(self):
        """The memo never serves an index SeedSequence rejects from the
        entry of the equal int."""
        seed = derive_run_seed("matmul", "baseline", 1)
        with pytest.raises(TypeError):
            derive_run_seed("matmul", "baseline", 1.0)
        assert derive_run_seed("matmul", "baseline", True) == seed


class TestRunner:
    def test_cell_runs_all_seeds(self, runner):
        cell = runner.cell("matmul", "baseline")
        assert isinstance(cell, CellResult)
        assert len(cell.runs) == 2
        assert cell.runs[0].seed == derive_run_seed("matmul", "baseline", 0)
        assert cell.runs[1].seed == derive_run_seed("matmul", "baseline", 1)

    def test_cell_cached(self, runner):
        a = runner.cell("matmul", "baseline")
        b = runner.cell("matmul", "baseline")
        assert a is b

    def test_clear_cache(self, runner):
        a = runner.cell("matmul", "baseline")
        runner.clear()
        assert runner.cell("matmul", "baseline") is not a

    def test_summaries(self, runner):
        cell = runner.cell("matmul", "baseline")
        s = cell.summary()
        assert s.n == 2 and s.mean > 0
        assert cell.overhead_summary().mean > 0
        assert cell.weighted_threads().mean == pytest.approx(4.0)

    def test_invalid_seed_count(self, tiny):
        r = Runner(ExperimentConfig(seeds=0, timesteps=1), topology=tiny)
        with pytest.raises(ExperimentError):
            r.cell("matmul", "baseline")

    def test_scheduler_dimension_distinct(self, runner):
        base = runner.cell("matmul", "baseline")
        ws = runner.cell("matmul", "worksharing")
        assert base.scheduler == "baseline" and ws.scheduler == "worksharing"
        assert base is not ws

    def test_cells_batch_matches_single(self, tiny):
        batch = Runner(
            ExperimentConfig(seeds=2, timesteps=2, with_noise=False), topology=tiny
        )
        single = Runner(
            ExperimentConfig(seeds=2, timesteps=2, with_noise=False), topology=tiny
        )
        pairs = [("matmul", "baseline"), ("matmul", "ilan")]
        got = batch.cells(pairs)
        for pair in pairs:
            assert got[pair].times == single.cell(*pair).times

    def test_prefetch_populates_all_cells(self, runner):
        runner.prefetch(["matmul"], ["baseline", "ilan"])
        cached = runner.cached_cells()
        assert ("matmul", "baseline") in cached
        assert ("matmul", "ilan") in cached


class TestKeyDerivedOnce:
    """Every spec's cache key is derived once per call, on a cold cache and
    on a warm one: the lookup and the result lookup share it.  The key
    frame is built once per stretch of specs that differ only in seed."""

    @pytest.fixture
    def key_calls(self, monkeypatch):
        """The seeds keyed through the per-spec derivation, and the
        number of key frames built, since the last ``clear``."""
        from repro.exp import runner as runner_module

        seeds = []
        frames = []
        real_key, real_frame = runner_module.seed_key, runner_module.cell_key_frame

        def key_spy(frame, seed):
            seeds.append(seed)
            return real_key(frame, seed)

        def frame_spy(**kwargs):
            frames.append((kwargs["benchmark"], kwargs["scheduler"]))
            return real_frame(**kwargs)

        monkeypatch.setattr(runner_module, "seed_key", key_spy)
        monkeypatch.setattr(runner_module, "cell_key_frame", frame_spy)
        return seeds, frames

    @staticmethod
    def _runner(tiny, cache):
        return Runner(
            ExperimentConfig(seeds=2, timesteps=1, with_noise=False),
            topology=tiny, cache=cache,
        )

    def test_run_specs(self, tiny, tmp_cache, key_calls):
        seeds, frames = key_calls
        runner = self._runner(tiny, tmp_cache)
        specs = runner.job_specs("matmul", "baseline", seeds=3)
        for expected_hits in (0, len(specs)):  # cold, then warm
            seeds.clear()
            frames.clear()
            runner.run_specs(specs)
            assert sorted(seeds) == sorted(s.seed for s in specs)
            assert frames == [("matmul", "baseline")]
            assert tmp_cache.stats.hits == expected_hits

    def test_cells(self, tiny, tmp_cache, key_calls):
        seeds, frames = key_calls
        pairs = [("matmul", "baseline"), ("cg", "worksharing")]
        for expected_hits in (0, 4):  # cold, then warm in a fresh runner
            seeds.clear()
            frames.clear()
            runner = self._runner(tiny, ResultCache(tmp_cache.root))
            runner.cells(pairs)
            specs = [spec for pair in pairs for spec in runner.job_specs(*pair)]
            assert sorted(seeds) == sorted(s.seed for s in specs)
            assert frames == pairs
            assert runner.cache.stats.hits == expected_hits


class TestStoresEachRunAsItCompletes:
    """A run reaches the cache the moment it completes, not when its batch
    ends: a failure on the k-th simulation leaves the k-1 runs before it
    stored, and a rerun serves them as hits."""

    K = 3

    @pytest.fixture
    def fail_kth_run(self, monkeypatch):
        """Only the K-th simulation of the test fails; later ones run."""
        from repro.exp import runner as runner_module

        real = runner_module.execute_spec
        calls = []

        def failing(spec, **kwargs):
            calls.append(spec)
            if len(calls) == self.K:
                raise RuntimeError(f"run {self.K} failed")
            return real(spec, **kwargs)

        monkeypatch.setattr(runner_module, "execute_spec", failing)

    @staticmethod
    def _runner(tiny, root):
        return Runner(
            ExperimentConfig(seeds=3, timesteps=1, with_noise=False),
            topology=tiny, cache=ResultCache(root), jobs=1,
        )

    def test_run_specs(self, tiny, tmp_cache, fail_kth_run):
        runner = self._runner(tiny, tmp_cache.root)
        specs = runner.job_specs("matmul", "baseline", seeds=5)
        with pytest.raises(RuntimeError, match="failed"):
            runner.run_specs(specs)
        assert runner.cache.stats.stores == self.K - 1
        assert len(ResultCache(tmp_cache.root)) == self.K - 1

        rerun = self._runner(tiny, tmp_cache.root)
        rerun.run_specs(specs)
        stats = rerun.cache.stats
        assert (stats.hits, stats.stores) == (self.K - 1, len(specs) - (self.K - 1))

    def test_cells(self, tiny, tmp_cache, fail_kth_run):
        pairs = [("matmul", "baseline"), ("cg", "worksharing")]
        runner = self._runner(tiny, tmp_cache.root)
        with pytest.raises(RuntimeError, match="failed"):
            runner.cells(pairs)
        assert runner.cache.stats.stores == self.K - 1
        assert runner.cached_cells() == {}

        rerun = self._runner(tiny, tmp_cache.root)
        rerun.cells(pairs)
        stats = rerun.cache.stats
        assert (stats.hits, stats.stores) == (self.K - 1, 6 - (self.K - 1))


class TestMemosUnderThreads:
    def test_concurrent_derivation_matches_sequential(self, tiny):
        """Service runner threads derive seeds and keys concurrently: from
        cold memos, with a tiny switch interval, every thread still gets
        the values of a sequential derivation."""
        runner = Runner(ExperimentConfig(seeds=1, timesteps=1), topology=tiny)

        def derive():
            return [
                spec.key(runner.topology_fp)
                for cell in [("matmul", "baseline"), ("cg", "ilan"), ("ft", "worksharing")]
                for lease in (None, 0b1, 0b11)
                for spec in runner.job_specs(*cell, seeds=40, lease_bits=lease)
            ]

        expected = derive()
        derive_run_seed.cache_clear()
        _key_frame.cache_clear()
        results = [None] * 8

        def work(i):
            results[i] = derive()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == expected for result in results)
