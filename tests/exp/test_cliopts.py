"""Tests for the shared campaign-CLI option vocabulary."""

import argparse

import pytest

from repro.exp.cache import default_cache_dir
from repro.exp.cliopts import (
    MACHINE_PRESETS,
    add_campaign_arguments,
    add_machine_argument,
    config_from_args,
    resolve_machine,
)
from repro.topology.hwloc import format_topology
from repro.topology.presets import tiny_two_node


def parse(argv, **machine_kwargs):
    parser = argparse.ArgumentParser()
    add_campaign_arguments(parser)
    add_machine_argument(parser, **machine_kwargs)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# flag vocabulary
# ----------------------------------------------------------------------
def test_defaults_leave_everything_unset():
    args = parse([])
    assert args.seeds is None
    assert args.timesteps is None
    assert args.jobs is None
    assert args.cache_dir is None
    assert args.no_noise is False
    assert args.no_cache is False
    assert args.machine == "zen4"


def test_all_flags_parse():
    args = parse(["--seeds", "5", "--timesteps", "10", "--no-noise",
                  "--jobs", "3", "--cache-dir", "/tmp/c", "--machine", "tiny"])
    assert (args.seeds, args.timesteps, args.jobs) == (5, 10, 3)
    assert args.no_noise and args.cache_dir == "/tmp/c"
    assert args.machine == "tiny"


def test_machine_default_is_overridable():
    assert parse([], default="small").machine == "small"


def test_the_two_campaign_clis_share_the_vocabulary():
    """The dedup satellite: both entry points accept the same flags."""
    from repro.exp.cli import _build_parser as exp_parser
    from repro.serve.__main__ import _build_parser as serve_parser

    shared = ["--seeds", "2", "--timesteps", "3", "--no-noise", "--jobs", "2",
              "--no-cache", "--machine", "tiny"]
    exp_args = exp_parser().parse_args(["fig2", *shared])
    serve_args = serve_parser().parse_args(shared)
    for ns in (exp_args, serve_args):
        assert (ns.seeds, ns.timesteps, ns.jobs) == (2, 3, 2)
        assert ns.no_noise and ns.no_cache
        assert ns.machine == "tiny"


# ----------------------------------------------------------------------
# config merge
# ----------------------------------------------------------------------
def test_flags_win_over_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SEEDS", "7")
    monkeypatch.setenv("REPRO_JOBS", "9")
    cfg = config_from_args(parse(["--seeds", "2", "--jobs", "1"]))
    assert (cfg.seeds, cfg.jobs) == (2, 1)


def test_environment_fills_unset_flags(monkeypatch):
    monkeypatch.setenv("REPRO_SEEDS", "7")
    monkeypatch.setenv("REPRO_ITERS", "11")
    monkeypatch.setenv("REPRO_JOBS", "4")
    cfg = config_from_args(parse([]))
    assert (cfg.seeds, cfg.timesteps, cfg.jobs) == (7, 11, 4)


def test_seeds_default_overrides_environment_default(monkeypatch):
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    cfg = config_from_args(parse([]), seeds_default=30)
    assert cfg.seeds == 30
    # ... but an explicit flag still wins
    assert config_from_args(parse(["--seeds", "2"]), seeds_default=30).seeds == 2


def test_noise_flag(monkeypatch):
    assert config_from_args(parse([])).with_noise is True
    assert config_from_args(parse(["--no-noise"])).with_noise is False


def test_cache_on_by_default_with_fallback_chain(tmp_path, monkeypatch):
    # explicit flag wins
    cfg = config_from_args(parse(["--cache-dir", str(tmp_path / "a")]))
    assert cfg.cache_dir == str(tmp_path / "a")
    # then the environment (set by the hermetic-cache fixture)
    env_cfg = config_from_args(parse([]))
    assert env_cfg.cache_dir is not None
    assert "repro-run-cache" in env_cfg.cache_dir
    # then the built-in default location
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert config_from_args(parse([])).cache_dir == str(default_cache_dir())


def test_no_cache_disables_the_cache_entirely(tmp_path):
    cfg = config_from_args(parse(["--no-cache", "--cache-dir", str(tmp_path)]))
    assert cfg.cache_dir is None


def test_asym_flags_parse_and_merge(monkeypatch):
    monkeypatch.delenv("REPRO_ASYM_SPEC", raising=False)
    monkeypatch.delenv("REPRO_ASYM_SEED", raising=False)
    # off by default
    cfg = config_from_args(parse([]))
    assert cfg.asym_spec is None and cfg.asym_seed is None
    # flags set both
    cfg = config_from_args(parse(["--asym-spec", "dvfs", "--asym-seed", "9"]))
    assert cfg.asym_spec == "dvfs" and cfg.asym_seed == 9
    # environment fills unset flags; explicit flags win
    monkeypatch.setenv("REPRO_ASYM_SPEC", "offline")
    monkeypatch.setenv("REPRO_ASYM_SEED", "3")
    assert config_from_args(parse([])).asym_spec == "offline"
    assert config_from_args(parse([])).asym_seed == 3
    cfg = config_from_args(parse(["--asym-spec", "mix"]))
    assert cfg.asym_spec == "mix" and cfg.asym_seed == 3


# ----------------------------------------------------------------------
# machine resolution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(MACHINE_PRESETS))
def test_presets_resolve(name):
    topo = resolve_machine(name)
    assert topo.num_cores >= 1


def test_topology_file_resolves(tmp_path):
    path = tmp_path / "machine.topo"
    path.write_text(format_topology(tiny_two_node()))
    topo = resolve_machine(str(path))
    assert topo.num_nodes == 2
    assert topo.num_cores == tiny_two_node().num_cores


def test_unknown_machine_exits_with_a_helpful_message():
    with pytest.raises(SystemExit, match="not a preset"):
        resolve_machine("nonexistent-machine")
