"""Shared command-line options for experiment campaigns.

``repro-exp`` (:mod:`repro.exp.cli`) and the service CLIs all drive the
same :class:`~repro.exp.runner.Runner`, so they share one flag
vocabulary.  This module is the single definition of those flags
(:func:`add_campaign_arguments`), of the argument→config merge against
the ``REPRO_*`` environment (:func:`config_from_args`), and of
machine-spec resolution (:func:`resolve_machine`).
"""

from __future__ import annotations

import argparse

from repro.exp.cache import default_cache_dir
from repro.exp.runner import ExperimentConfig
from repro.topology.hwloc import parse_topology
from repro.topology.machine import MachineTopology
from repro.topology.presets import (
    dual_socket_small,
    single_node,
    tiny_two_node,
    zen4_9354,
)

__all__ = [
    "MACHINE_PRESETS",
    "add_campaign_arguments",
    "config_from_args",
    "resolve_machine",
    "add_machine_argument",
]

MACHINE_PRESETS = {
    "zen4": zen4_9354,
    "small": dual_socket_small,
    "tiny": tiny_two_node,
    "uma": single_node,
}


def add_campaign_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the campaign-shape and execution flags every runner CLI takes.

    All defaults are ``None``/off so :func:`config_from_args` can fall back
    to the ``REPRO_*`` environment knobs without double-reading them.
    """
    parser.add_argument(
        "--seeds", type=int, default=None, help="repetitions per cell (paper: 30)"
    )
    parser.add_argument(
        "--timesteps", type=int, default=None, help="application timesteps override"
    )
    parser.add_argument(
        "--no-noise", action="store_true", help="disable external system noise"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the campaign's runs (default: $REPRO_JOBS "
        "or 1); results are identical for any N",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent run-cache directory (default: $REPRO_CACHE_DIR or "
        f"{default_cache_dir()}); completed runs are reused across invocations",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent run cache (every run is re-simulated)",
    )
    parser.add_argument(
        "--asym-spec",
        metavar="SPEC",
        default=None,
        help="dynamic-asymmetry timeline: a preset (dvfs, throttle, "
        "cotenant, offline, mix, harsh), 'preset:key=value,...' overrides, "
        "or raw 'key=value,...' fields; 'none' disables (default: "
        "$REPRO_ASYM_SPEC or no asymmetry)",
    )
    parser.add_argument(
        "--asym-seed",
        type=int,
        default=None,
        metavar="N",
        help="dedicated seed for the asymmetry timeline (default: "
        "$REPRO_ASYM_SEED or derived from each run's seed)",
    )
    return parser


def add_machine_argument(
    parser: argparse.ArgumentParser, *, default: str = "zen4"
) -> argparse.ArgumentParser:
    """The ``--machine`` flag: a preset name or an hwloc-style file path."""
    known = ", ".join(sorted(MACHINE_PRESETS))
    parser.add_argument(
        "--machine",
        default=default,
        help=f"machine model: a preset ({known}) or a path to an hwloc-style "
        "topology file (default: the paper's 64-core Zen 4)",
    )
    return parser


def config_from_args(
    args: argparse.Namespace, *, seeds_default: int | None = None
) -> ExperimentConfig:
    """Merge parsed campaign flags over the ``REPRO_*`` environment.

    Explicit flags win; unset flags inherit from the environment config;
    ``seeds_default`` (when given) overrides the environment's seed count
    for front ends with their own default (the service CLIs pass 1).  The
    persistent cache is on unless ``--no-cache`` was passed.
    """
    env_cfg = ExperimentConfig.from_env()
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = str(args.cache_dir or env_cfg.cache_dir or default_cache_dir())
    if args.seeds is not None:
        seeds = args.seeds
    elif seeds_default is not None:
        seeds = seeds_default
    else:
        seeds = env_cfg.seeds
    return ExperimentConfig(
        seeds=seeds,
        timesteps=args.timesteps if args.timesteps is not None else env_cfg.timesteps,
        with_noise=not getattr(args, "no_noise", False),
        jobs=args.jobs if args.jobs is not None else env_cfg.jobs,
        cache_dir=cache_dir,
        asym_spec=getattr(args, "asym_spec", None) or env_cfg.asym_spec,
        asym_seed=(
            args.asym_seed
            if getattr(args, "asym_seed", None) is not None
            else env_cfg.asym_seed
        ),
    )


def resolve_machine(spec: str) -> MachineTopology:
    """A preset name or an hwloc-style topology file path."""
    factory = MACHINE_PRESETS.get(spec)
    if factory is not None:
        return factory()
    from pathlib import Path

    path = Path(spec)
    if not path.exists():
        known = ", ".join(sorted(MACHINE_PRESETS))
        raise SystemExit(
            f"unknown machine {spec!r}: not a preset ({known}) nor a topology file"
        )
    return parse_topology(path.read_text())
