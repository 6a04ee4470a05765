"""Shared infrastructure for the paper-figure benchmarks.

Each ``bench_*`` file regenerates one table or figure of the paper's
evaluation section and prints it.  The cells (benchmark x scheduler runs)
are cached in a process-wide runner, so figures that share cells (e.g.
Figure 2 and Figure 3) only pay once.

Scaling knobs (environment, read once when the runner is first built):

* ``REPRO_SEEDS``     — repetitions per cell (default 10 here; paper: 30);
* ``REPRO_ITERS``     — application timesteps (default: the models' 50);
* ``REPRO_FULL=1``    — paper-parity scale (30 seeds, model defaults);
* ``REPRO_JOBS``      — worker processes for the runs (default 1);
* ``REPRO_CACHE_DIR`` — persistent run cache: reruns of the bench suite
  reuse completed runs instead of re-simulating them.
"""

from __future__ import annotations

import pytest

from repro.bench import timers
from repro.exp.runner import ExperimentConfig, Runner


def bench_config() -> ExperimentConfig:
    """Benchmark-suite scale: lighter default than the paper's 30 seeds."""
    return ExperimentConfig.from_env(default_seeds=10)


_RUNNER: Runner | None = None


@pytest.fixture(scope="session")
def runner() -> Runner:
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = Runner(bench_config())
    return _RUNNER


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic given their seed set, and a single
    invocation already aggregates many simulated runs, so repeated
    benchmark rounds would only re-measure the cache.  Timing goes
    through the repo's single wall-clock seam (:mod:`repro.bench.timers`)
    so these figures and ``scripts/run_experiments.py`` measure
    identically.
    """
    benchmark._timer = timers.now
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
