"""Determinism and cache-integration tests for the parallel runner.

The load-bearing claims locked down here:

* a campaign run with ``jobs=N`` is **byte-identical** to ``jobs=1``;
* a warm-cache rerun re-simulates **zero** runs and still produces
  byte-identical results;
* the in-memory cell memoisation, the disk cache, and the process pool
  compose without changing any result;
* concurrent ``run_specs`` calls look runs up in the cache one call at a
  time, process-wide, and simulate their misses with the lookup lock free.
"""

import json
import threading
from itertools import groupby

import pytest

import repro.exp.runner as runner_module
from repro.exp.cache import ResultCache, run_to_json
from repro.exp.figures import figure2
from repro.exp.persistence import results_to_dict
from repro.exp.runner import ExperimentConfig, Runner

BENCHES = ["matmul", "cg"]
PAIRS = [(b, s) for b in BENCHES for s in ("baseline", "ilan")]
CFG = ExperimentConfig(seeds=2, timesteps=2, with_noise=True)


def campaign_fingerprint(runner: Runner) -> str:
    """Canonical text of every run of every cell (NaN-safe byte identity)."""
    parts = {
        f"{bench}/{sched}": [run_to_json(r) for r in cell.runs]
        for (bench, sched), cell in sorted(runner.cached_cells().items())
    }
    return json.dumps(parts, sort_keys=True)


#: bound on every wait of the concurrency tests: a regression fails there
#: instead of hanging the suite
WAIT_S = 30.0


class _Worker(threading.Thread):
    """A daemon thread that keeps its target's return value or error."""

    def __init__(self, target):
        super().__init__(daemon=True)
        self._target_fn = target
        self.result = None
        self.error: BaseException | None = None

    def run(self):
        try:
            self.result = self._target_fn()
        except BaseException as exc:  # re-raised on the test's thread
            self.error = exc

    def finish(self):
        self.join(WAIT_S)
        assert not self.is_alive(), "a runner thread is still blocked"
        if self.error is not None:
            raise self.error
        return self.result


class _LoggedCache(ResultCache):
    """A cache whose ``get`` logs its tag on entry and on exit, and runs
    ``on_get`` (if any) inside the call."""

    def __init__(self, root, tag, log, on_get=None):
        super().__init__(root, fsync=False)
        self._tag = tag
        self._log = log
        self._on_get = on_get

    def get(self, key):
        self._log.append(self._tag)
        try:
            if self._on_get is not None:
                self._on_get()
            return super().get(key)
        finally:
            self._log.append(self._tag)


def _texts(results):
    return [run_to_json(r) for r in results]


@pytest.fixture
def make_runner(tiny):
    def _make(jobs: int = 1, cache: ResultCache | None = None) -> Runner:
        return Runner(CFG, topology=tiny, jobs=jobs, cache=cache)

    return _make


class TestParallelEqualsSequential:
    def test_campaign_byte_identical(self, make_runner):
        seq = make_runner(jobs=1)
        par = make_runner(jobs=2)
        seq.cells(PAIRS)
        par.cells(PAIRS)
        assert campaign_fingerprint(par) == campaign_fingerprint(seq)

    def test_figure2_rows_identical(self, make_runner):
        """The acceptance check: figure-2 summaries match run-for-run."""
        seq_rows = figure2(make_runner(jobs=1), BENCHES)
        par_rows = figure2(make_runner(jobs=2), BENCHES)
        assert par_rows == seq_rows

    def test_summary_payload_identical(self, make_runner):
        seq = make_runner(jobs=1)
        par = make_runner(jobs=2)
        seq.cells(PAIRS)
        par.cells(PAIRS)
        assert json.dumps(results_to_dict(par), sort_keys=True) == json.dumps(
            results_to_dict(seq), sort_keys=True
        )

    def test_execution_order_irrelevant(self, make_runner):
        """Cells computed one-by-one equal cells computed in one fan-out."""
        one_by_one = make_runner(jobs=1)
        for pair in PAIRS:
            one_by_one.cell(*pair)
        fanned = make_runner(jobs=2)
        fanned.cells(list(reversed(PAIRS)))
        assert campaign_fingerprint(fanned) == campaign_fingerprint(one_by_one)


class TestCacheIntegration:
    def test_cold_run_populates_cache(self, make_runner, tmp_cache):
        runner = make_runner(jobs=2, cache=tmp_cache)
        runner.cells(PAIRS)
        expected_runs = len(PAIRS) * CFG.seeds
        assert tmp_cache.stats.stores == expected_runs
        assert tmp_cache.stats.hits == 0
        assert len(tmp_cache) == expected_runs

    def test_warm_rerun_simulates_nothing(self, make_runner, tmp_cache):
        make_runner(jobs=2, cache=tmp_cache).cells(PAIRS)
        warm = make_runner(jobs=2, cache=ResultCache(tmp_cache.root))
        warm.cells(PAIRS)
        assert warm.cache.stats.misses == 0, "warm rerun must re-simulate zero runs"
        assert warm.cache.stats.stores == 0
        assert warm.cache.stats.hits == len(PAIRS) * CFG.seeds

    def test_warm_results_byte_identical(self, make_runner, tmp_cache):
        cold = make_runner(jobs=1, cache=tmp_cache)
        cold.cells(PAIRS)
        warm = make_runner(jobs=2, cache=ResultCache(tmp_cache.root))
        warm.cells(PAIRS)
        assert campaign_fingerprint(warm) == campaign_fingerprint(cold)

    def test_unrelated_config_does_not_hit(self, make_runner, tmp_cache):
        """Changing any configuration field must miss, not serve stale runs."""
        make_runner(cache=tmp_cache).cells(PAIRS)
        other_cfg = ExperimentConfig(seeds=2, timesteps=3, with_noise=True)
        other = Runner(other_cfg, topology=make_runner().topology,
                       cache=ResultCache(tmp_cache.root))
        other.cell("matmul", "baseline")
        assert other.cache.stats.hits == 0

    def test_growing_seed_count_reuses_prefix(self, tiny, tmp_cache):
        """Runs are cached individually: going 2 → 4 seeds reuses the 2."""
        Runner(CFG, topology=tiny, cache=tmp_cache).cell("matmul", "baseline")
        bigger = Runner(
            ExperimentConfig(seeds=4, timesteps=2, with_noise=True),
            topology=tiny,
            cache=ResultCache(tmp_cache.root),
        )
        bigger.cell("matmul", "baseline")
        assert bigger.cache.stats.hits == 2
        assert bigger.cache.stats.stores == 2

    def test_corrupt_entry_recomputed_transparently(self, make_runner, tmp_cache):
        cold = make_runner(cache=tmp_cache)
        cold.cells(PAIRS)
        fingerprint = campaign_fingerprint(cold)
        # truncate one entry on disk
        victim = next(iter(tmp_cache.keys()))
        path = tmp_cache.path_for(victim)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        warm = make_runner(jobs=2, cache=ResultCache(tmp_cache.root))
        warm.cells(PAIRS)
        assert campaign_fingerprint(warm) == fingerprint
        assert warm.cache.stats.misses == 1
        assert warm.cache.stats.stores == 1
        # the damaged entry was met inside the locked lookups, and the
        # lock is free afterwards: a call on another thread reads them all
        reader = make_runner(cache=ResultCache(tmp_cache.root))
        after = _Worker(lambda: reader.cells(PAIRS))
        after.start()
        after.finish()
        assert campaign_fingerprint(reader) == fingerprint
        assert reader.cache.stats.hits == len(PAIRS) * CFG.seeds


class TestJobsPlumbing:
    def test_config_jobs_used_by_default(self, tiny):
        runner = Runner(
            ExperimentConfig(seeds=1, timesteps=1, with_noise=False, jobs=3),
            topology=tiny,
        )
        assert runner.jobs == 3

    def test_jobs_argument_overrides_config(self, tiny):
        runner = Runner(
            ExperimentConfig(seeds=1, timesteps=1, with_noise=False, jobs=3),
            topology=tiny,
            jobs=1,
        )
        assert runner.jobs == 1

    def test_jobs_floor_is_one(self, tiny):
        assert Runner(CFG, topology=tiny, jobs=0).jobs == 1

    def test_config_cache_dir_builds_cache(self, tiny, tmp_path):
        cache_dir = tmp_path / "from-config"
        runner = Runner(
            ExperimentConfig(seeds=1, timesteps=1, with_noise=False,
                             cache_dir=str(cache_dir)),
            topology=tiny,
        )
        assert runner.cache is not None
        runner.cell("matmul", "baseline")
        assert cache_dir.is_dir() and len(runner.cache) == 1


class TestWarmReaderLock:
    """``Runner._execute`` holds one process-wide lock across its cache
    lookups and nothing else."""

    def test_concurrent_warm_lookups_never_interleave(self, tiny, tmp_path):
        """Two runners with their own caches over one warm directory, as a
        fleet's in-process shards have: the second call enters
        ``run_specs`` while the first is mid-batch, and still reads only
        after the first call's last read."""
        root = tmp_path / "runs"
        warmer = Runner(CFG, topology=tiny, cache=ResultCache(root, fsync=False))
        specs = {
            "a": warmer.job_specs("matmul", "baseline", seeds=4),
            "b": warmer.job_specs("cg", "ilan", seeds=4),
        }
        # the sequential calls warm the directory and give the reference bytes
        expected = {tag: _texts(warmer.run_specs(s)) for tag, s in specs.items()}

        log: list[str] = []
        a_reading = threading.Event()
        b_called = threading.Event()

        def hold_first_read():
            if not a_reading.is_set():
                a_reading.set()
                b_called.wait(WAIT_S)

        caches = {
            "a": _LoggedCache(root, "a", log, on_get=hold_first_read),
            "b": _LoggedCache(root, "b", log),
        }

        def call_a():
            return Runner(CFG, topology=tiny, cache=caches["a"]).run_specs(specs["a"])

        def call_b():
            a_reading.wait(WAIT_S)
            return Runner(CFG, topology=tiny, cache=caches["b"]).run_specs(
                specs["b"], fault_hook=lambda _specs: b_called.set()
            )

        workers = {"a": _Worker(call_a), "b": _Worker(call_b)}
        for worker in workers.values():
            worker.start()
        got = {tag: _texts(worker.finish()) for tag, worker in workers.items()}
        assert b_called.is_set()
        assert [tag for tag, _ in groupby(log)] == ["a", "b"]
        assert got == expected
        assert caches["a"].stats.hits == caches["b"].stats.hits == 4

    def test_miss_simulates_with_the_lock_free(self, tiny, tmp_path, monkeypatch):
        """While one call is parked inside a simulation, another call's
        warm batch completes."""
        root = tmp_path / "runs"
        warmer = Runner(CFG, topology=tiny, cache=ResultCache(root, fsync=False))
        warm_specs = warmer.job_specs("matmul", "baseline", seeds=4)
        expected = _texts(warmer.run_specs(warm_specs))
        cold_specs = warmer.job_specs("cg", "baseline", seeds=1)

        parked = threading.Event()
        release = threading.Event()
        simulate = runner_module.execute_spec

        def parked_execute(spec, **kwargs):
            parked.set()
            release.wait(WAIT_S)
            return simulate(spec, **kwargs)

        monkeypatch.setattr(runner_module, "execute_spec", parked_execute)
        cold = Runner(CFG, topology=tiny, cache=ResultCache(root, fsync=False))
        warm = Runner(CFG, topology=tiny, cache=ResultCache(root, fsync=False))
        cold_call = _Worker(lambda: cold.run_specs(cold_specs))
        cold_call.start()
        assert parked.wait(WAIT_S)
        warm_call = _Worker(lambda: warm.run_specs(warm_specs))
        warm_call.start()
        try:
            assert _texts(warm_call.finish()) == expected
            assert cold_call.is_alive()
        finally:
            release.set()
        cold_call.finish()
        assert warm.cache.stats.hits == 4
        assert cold.cache.stats.misses == 1 and cold.cache.stats.stores == 1
