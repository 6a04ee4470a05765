"""Environment-knob handling: precedence and read-once semantics.

``ExperimentConfig.from_env`` is the single place the ``REPRO_*`` knobs
are read; a constructed config (and any :class:`Runner` built from it) is
immutable against later environment changes.
"""

import pytest

from repro.exp.runner import ExperimentConfig, Runner
from repro.topology.presets import tiny_two_node


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("REPRO_SEEDS", "REPRO_ITERS", "REPRO_JOBS",
                 "REPRO_CACHE_DIR", "REPRO_ASYM_SPEC", "REPRO_ASYM_SEED"):
        monkeypatch.delenv(name, raising=False)


class TestDefaults:
    def test_paper_defaults_without_env(self):
        cfg = ExperimentConfig.from_env()
        assert cfg == ExperimentConfig(
            seeds=30, timesteps=None, with_noise=True, jobs=1, cache_dir=None
        )

    def test_default_seeds_parameter(self):
        """The bench suite's lighter default flows through ``from_env``."""
        assert ExperimentConfig.from_env(default_seeds=10).seeds == 10

    def test_env_seeds_beat_default_seeds_parameter(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "4")
        assert ExperimentConfig.from_env(default_seeds=10).seeds == 4


class TestPrecedence:
    def test_seeds_and_iters(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "7")
        monkeypatch.setenv("REPRO_ITERS", "12")
        cfg = ExperimentConfig.from_env()
        assert cfg.seeds == 7
        assert cfg.timesteps == 12

    def test_jobs_and_cache_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
        cfg = ExperimentConfig.from_env()
        assert cfg.jobs == 4
        assert cfg.cache_dir == "/tmp/elsewhere"

    def test_empty_cache_dir_means_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert ExperimentConfig.from_env().cache_dir is None


class TestReadOnce:
    def test_config_frozen_against_env_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "5")
        cfg = ExperimentConfig.from_env()
        monkeypatch.setenv("REPRO_SEEDS", "9")
        assert cfg.seeds == 5
        assert ExperimentConfig.from_env().seeds == 9

    def test_runner_captures_env_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "2")
        monkeypatch.setenv("REPRO_ITERS", "1")
        monkeypatch.setenv("REPRO_JOBS", "2")
        runner = Runner(topology=tiny_two_node())
        monkeypatch.setenv("REPRO_SEEDS", "30")
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert runner.config.seeds == 2
        assert runner.config.timesteps == 1
        assert runner.jobs == 2
        cell = runner.cell("matmul", "baseline")
        assert len(cell.runs) == 2

    def test_specs_never_reread_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "3")
        runner = Runner(topology=tiny_two_node())
        monkeypatch.setenv("REPRO_SEEDS", "1")
        assert len(runner.job_specs("matmul", "baseline")) == 3


class TestAsymKnobs:
    def test_defaults_off(self):
        cfg = ExperimentConfig.from_env()
        assert cfg.asym_spec is None
        assert cfg.asym_seed is None
        assert cfg.parsed_asym() is None

    def test_env_spec_and_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASYM_SPEC", "dvfs:dvfs_low=0.5")
        monkeypatch.setenv("REPRO_ASYM_SEED", "7")
        cfg = ExperimentConfig.from_env()
        assert cfg.asym_spec == "dvfs:dvfs_low=0.5"
        assert cfg.asym_seed == 7
        spec = cfg.parsed_asym()
        assert spec is not None and spec.dvfs_low == 0.5

    def test_empty_spec_means_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASYM_SPEC", "")
        assert ExperimentConfig.from_env().asym_spec is None

    def test_bad_spec_fails_fast(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            ExperimentConfig(asym_spec="nosuchpreset")

    def test_specs_carry_the_parsed_asym(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEEDS", "2")
        monkeypatch.setenv("REPRO_ITERS", "1")
        monkeypatch.setenv("REPRO_ASYM_SPEC", "dvfs")
        monkeypatch.setenv("REPRO_ASYM_SEED", "5")
        runner = Runner(topology=tiny_two_node())
        for spec in runner.job_specs("matmul", "baseline"):
            assert spec.asym is not None and spec.asym.enabled
            assert spec.asym_seed == 5
