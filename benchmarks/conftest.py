"""Shared infrastructure for the paper-figure benchmarks.

Each ``bench_*`` file regenerates one table or figure of the paper's
evaluation section, prints it and asserts its qualitative shape.  The
cells (benchmark x scheduler runs) are cached in a session-wide runner,
so figures that share cells (e.g. Figure 2 and Figure 3) only pay once.
Run the suite with ``pytest benchmarks/ -s`` to see the tables.

Scaling knobs (environment, read once when the runner is first built):

* ``REPRO_SEEDS``     — repetitions per cell (default 10 here; paper: 30);
* ``REPRO_ITERS``     — application timesteps (default: the models' 50);
* ``REPRO_JOBS``      — worker processes for the runs (default 1);
* ``REPRO_CACHE_DIR`` — persistent run cache: reruns of the bench suite
  reuse completed runs instead of re-simulating them.
"""

from __future__ import annotations

import pytest

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
