"""Experiment runner: benchmark x scheduler x seeds, parallel and cached.

The paper's methodology is 30 repetitions per (benchmark, scheduler) cell;
several figures share the same cells (Figure 2 and Figure 3 both need the
ILAN runs), so the runner memoises completed cells in memory and — when a
cache is attached — persists every individual run on disk, content-addressed
by its full configuration (see :mod:`repro.exp.cache`).

Every run is an independent simulation whose randomness derives entirely
from its seed, and each cell gets its own seed sequence spawned from the
stable ``(benchmark, scheduler)`` cell key (:func:`derive_run_seed`, built
on :mod:`repro.sim.rng`).  Two consequences:

* runs can execute in any order on any number of worker processes and the
  results are byte-identical to a sequential execution (``jobs=1``);
* adding a cell never perturbs the random draws of existing cells.

Environment knobs — read exactly once, inside
:meth:`ExperimentConfig.from_env`; a constructed config never re-reads the
environment:

* ``REPRO_SEEDS`` — repetitions per cell (default 30, the paper's count);
* ``REPRO_ITERS`` — application timesteps (default: each model's own);
* ``REPRO_JOBS`` — worker processes (default 1 = in-process);
* ``REPRO_CACHE_DIR`` — persistent run-cache directory (default: none);
* ``REPRO_ASYM_SPEC`` — dynamic-asymmetry timeline spec (see
  :meth:`repro.interference.AsymmetrySpec.parse`; default: disabled);
* ``REPRO_ASYM_SEED`` — seed for the asymmetry timeline, decoupling the
  machine's misbehaviour from the run seed (default: the run seed).
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.exp.cache import (
    ResultCache,
    cell_key_frame,
    seed_key,
    topology_fingerprint,
)
from repro.exp.stats import Summary, summarize
from repro.interference.noise import NoiseParams
from repro.interference.timeline import AsymmetrySpec
from repro.runtime.results import AppRunResult
from repro.runtime.runtime import OpenMPRuntime
from repro.sim.rng import spawn_key
from repro.topology.machine import MachineTopology
from repro.topology.presets import zen4_9354
from repro.workloads.registry import make_benchmark

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "LEASE_SCHEDULERS",
    "RunSpec",
    "Runner",
    "default_noise",
    "derive_run_seed",
    "execute_spec",
]


def default_noise() -> NoiseParams:
    """Mild external noise used by the paper-figure experiments.

    Gives runs a realistic variability floor; scheduler-induced variance
    (random placement/stealing) comes on top of it.
    """
    return NoiseParams(
        mean_interval=0.05, mean_duration=0.005, slow_factor=0.6, cores_fraction=0.1
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Shape of one experiment campaign.

    ``jobs`` and ``cache_dir`` control *how* a campaign executes, never
    what it computes: results are independent of both.
    """

    seeds: int = 30
    timesteps: int | None = None
    with_noise: bool = True
    jobs: int = 1
    cache_dir: str | None = None
    asym_spec: str | None = None
    asym_seed: int | None = None

    def __post_init__(self) -> None:
        if self.asym_spec is not None:
            # fail fast on an unparsable spec, not mid-campaign
            AsymmetrySpec.parse(self.asym_spec)

    def parsed_asym(self) -> AsymmetrySpec | None:
        """The parsed asymmetry timeline spec; ``None`` when disabled."""
        if self.asym_spec is None:
            return None
        spec = AsymmetrySpec.parse(self.asym_spec)
        return spec if spec.enabled else None

    @staticmethod
    def from_env(*, default_seeds: int = 30) -> "ExperimentConfig":
        """Read the ``REPRO_*`` environment knobs — once, here.

        ``default_seeds`` is the seed count when ``REPRO_SEEDS`` is unset.
        Later environment changes never affect a config (or a
        :class:`Runner`) that was already constructed.
        """
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        asym_spec = os.environ.get("REPRO_ASYM_SPEC") or None
        asym_env = os.environ.get("REPRO_ASYM_SEED")
        asym_seed = int(asym_env) if asym_env else None
        seeds = int(os.environ.get("REPRO_SEEDS", str(default_seeds)))
        iters = os.environ.get("REPRO_ITERS")
        return ExperimentConfig(
            seeds=seeds,
            timesteps=int(iters) if iters else None,
            jobs=jobs,
            cache_dir=cache_dir,
            asym_spec=asym_spec,
            asym_seed=asym_seed,
        )


@functools.lru_cache(maxsize=8192, typed=True)
def derive_run_seed(benchmark: str, scheduler: str, index: int) -> int:
    """Seed of repetition ``index`` of cell ``(benchmark, scheduler)``.

    Spawned through :class:`numpy.random.SeedSequence` from the stable
    string cell key (same CRC-based spawning as :func:`repro.sim.rng.stream`),
    so every cell owns an independent, order-insensitive seed stream and
    parallel workers need no shared RNG state at all.

    A pure function, memoised: a served job of ``n`` runs derives the same
    ``n`` seeds on every submission.  ``typed`` keeps a float index, which
    :class:`~numpy.random.SeedSequence` rejects, from hitting the entry of
    the equal int.
    """
    if index < 0:
        raise ExperimentError(f"repetition index must be non-negative, got {index}")
    ss = np.random.SeedSequence(
        entropy=index, spawn_key=tuple(spawn_key("exp.cell", benchmark, scheduler))
    )
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class RunSpec:
    """Complete, picklable configuration of one simulated run.

    This is both the unit of work shipped to worker processes and the
    input of the cache key — the two stay in lockstep by construction.

    ``lease_bits`` (multi-tenant service) confines the run to a NUMA-node
    lease: the scheduler molds inside that node subset only.  It is part
    of the cache key when set, so leased and unleased runs of the same
    cell never collide; ``None`` leaves the key bit-identical to the
    pre-lease format.

    ``asym``/``asym_seed`` attach a dynamic-asymmetry timeline to the
    run.  An enabled spec enters the cache key in its canonical
    ``describe()`` form (stable across parse spellings); a disabled or
    absent one — and an unset ``asym_seed`` — leave the key bit-identical
    to the pre-asymmetry format.
    """

    benchmark: str
    scheduler: str
    seed: int
    timesteps: int | None
    noise: NoiseParams | None
    topology: MachineTopology
    lease_bits: int | None = None
    asym: AsymmetrySpec | None = None
    asym_seed: int | None = None

    def key(self, topology_fp: str | None = None) -> str:
        """The run-cache key of this spec (its frame, then its seed)."""
        if topology_fp is None:
            topology_fp = topology_fingerprint(self.topology)
        return seed_key(self.key_frame(topology_fp), self.seed)

    def key_frame(self, topology_fp: str) -> tuple[str, str]:
        """The key text around this spec's seed
        (:func:`~repro.exp.cache.cell_key_frame`): shared by every spec
        that differs from this one only in its seed."""
        params: dict[str, object] = {}
        if self.lease_bits is not None:
            params["lease"] = self.lease_bits
        if self.asym is not None and self.asym.enabled:
            params["asym"] = self.asym.describe()
        if self.asym_seed is not None:
            params["asym_seed"] = self.asym_seed
        return cell_key_frame(
            benchmark=self.benchmark,
            scheduler=self.scheduler,
            timesteps=self.timesteps,
            noise=self.noise,
            topology_fp=topology_fp,
            scheduler_params=params or None,
        )


def _same_frame(a: RunSpec, b: RunSpec) -> bool:
    """Whether two specs share a key frame: every field but the seed is
    the *same object* (values that compare equal can encode differently,
    ``1``, ``1.0`` and ``True``; one object cannot)."""
    return (
        a.benchmark is b.benchmark
        and a.scheduler is b.scheduler
        and a.timesteps is b.timesteps
        and a.noise is b.noise
        and a.lease_bits is b.lease_bits
        and a.asym is b.asym
        and a.asym_seed is b.asym_seed
    )


def _spec_keys(specs: Iterable[RunSpec], topology_fp: str) -> list[str]:
    """Each spec's :meth:`RunSpec.key`, with the key frame built once per
    stretch of specs that differ only in seed (a job, a cell)."""
    keys = []
    last = None
    for spec in specs:
        if last is None or not _same_frame(spec, last):
            frame = spec.key_frame(topology_fp)
        keys.append(seed_key(frame, spec.seed))
        last = spec
    return keys


#: Schedulers that understand a NUMA-node lease (``allowed_nodes``).
LEASE_SCHEDULERS = frozenset({"ilan", "ilan-adaptive"})


def _make_scheduler(spec: RunSpec):
    """Scheduler instance (or name) for a spec, honouring its lease."""
    if spec.lease_bits is None:
        return spec.scheduler
    if spec.scheduler not in LEASE_SCHEDULERS:
        raise ExperimentError(
            f"scheduler {spec.scheduler!r} does not support node leases; "
            f"leasable schedulers: {sorted(LEASE_SCHEDULERS)}"
        )
    from repro.runtime.schedulers.base import create_scheduler
    from repro.topology.affinity import NodeMask

    mask = NodeMask(bits=spec.lease_bits, width=spec.topology.num_nodes)
    if mask.is_empty():
        raise ExperimentError("lease mask must contain at least one node")
    return create_scheduler(spec.scheduler, allowed_nodes=mask)


def execute_spec(
    spec: RunSpec, *, runtime_type: type[OpenMPRuntime] = OpenMPRuntime
) -> AppRunResult:
    """Simulate one run from scratch (the worker-process entry point).

    ``runtime_type`` lets the equivalence suites replay a spec on the
    differential oracle (:class:`repro.runtime.reference.ReferenceRuntime`);
    every production caller leaves it at the default.
    """
    app = make_benchmark(spec.benchmark, timesteps=spec.timesteps)
    runtime = runtime_type(
        spec.topology,
        scheduler=_make_scheduler(spec),
        seed=spec.seed,
        noise=spec.noise,
        asym=spec.asym,
        asym_seed=spec.asym_seed,
    )
    return runtime.run_application(app)


@dataclass
class CellResult:
    """All runs of one (benchmark, scheduler) cell."""

    benchmark: str
    scheduler: str
    runs: list[AppRunResult]

    @property
    def times(self) -> list[float]:
        return [r.total_time for r in self.runs]

    @property
    def seeds(self) -> list[int]:
        return [r.seed for r in self.runs]

    def summary(self) -> Summary:
        return summarize(self.times)

    def overhead_summary(self) -> Summary:
        return summarize([r.total_overhead for r in self.runs])

    def weighted_threads(self) -> Summary:
        return summarize([r.weighted_avg_threads for r in self.runs])


#: One thread per process at a time resolves its batch against the run
#: cache.  Each hit's read is three syscalls that release the interpreter
#: lock, so two threads reading at once hand it to each other at every
#: one; holding this across a batch's lookups serves concurrent warm
#: batches first come, first served instead.  Process-wide because a
#: fleet's in-process shards each own a runner and a cache over one
#: directory.  Simulation and ``ResultCache.put`` run outside it.
_READER_LOCK = threading.Lock()


class Runner:
    """Parallel, caching benchmark runner bound to one machine model.

    ``jobs`` > 1 fans run simulations out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; an attached
    :class:`ResultCache` is consulted before any simulation and stores
    each run as soon as it completes.  Both are transparent: summaries are
    byte-identical whatever the job count or cache state.

    The cache is also the crash-recovery path: a campaign killed at any
    point loses only the runs still executing, and rerunning the same
    command serves every stored run as a verified hit.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        topology: MachineTopology | None = None,
        *,
        cache: ResultCache | None = None,
        jobs: int | None = None,
    ):
        self.config = config or ExperimentConfig.from_env()
        self.topology = topology or zen4_9354()
        self.jobs = max(1, jobs if jobs is not None else self.config.jobs)
        if cache is None and self.config.cache_dir:
            cache = ResultCache(self.config.cache_dir)
        self.cache = cache
        self._cells: dict[tuple[str, str], CellResult] = {}
        self._topology_fp: str | None = None

    # ------------------------------------------------------------------
    @property
    def topology_fp(self) -> str:
        """Structural fingerprint of the machine (computed once)."""
        if self._topology_fp is None:
            self._topology_fp = topology_fingerprint(self.topology)
        return self._topology_fp

    # ------------------------------------------------------------------
    def cell(self, benchmark: str, scheduler: str) -> CellResult:
        """Runs of (benchmark, scheduler); computed once, then memoised."""
        return self.cells([(benchmark, scheduler)])[(benchmark, scheduler)]

    def cells(
        self, pairs: Iterable[tuple[str, str]]
    ) -> dict[tuple[str, str], CellResult]:
        """Compute many cells at once, fanning *all* their missing runs
        out over one worker pool (cross-cell parallelism)."""
        wanted = list(dict.fromkeys(pairs))
        todo = [pair for pair in wanted if pair not in self._cells]
        if todo:
            cell_specs = {pair: self.job_specs(*pair) for pair in todo}
            cell_keys = {
                pair: _spec_keys(specs, self.topology_fp)
                for pair, specs in cell_specs.items()
            }
            results = self._execute({
                key: spec
                for pair, specs in cell_specs.items()
                for key, spec in zip(cell_keys[pair], specs)
            })
            for pair, keys in cell_keys.items():
                self._cells[pair] = CellResult(
                    benchmark=pair[0], scheduler=pair[1],
                    runs=[results[key] for key in keys],
                )
        return {pair: self._cells[pair] for pair in wanted}

    def prefetch(
        self, benchmarks: Sequence[str], schedulers: Sequence[str]
    ) -> dict[tuple[str, str], CellResult]:
        """Warm every (benchmark, scheduler) combination in one fan-out."""
        return self.cells(product(benchmarks, schedulers))

    # ------------------------------------------------------------------
    # spec-level API (cells, and the multi-tenant service's jobs)
    # ------------------------------------------------------------------
    def job_specs(
        self,
        benchmark: str,
        scheduler: str = "ilan",
        *,
        seeds: int | None = None,
        timesteps: int | None = None,
        lease_bits: int | None = None,
    ) -> list[RunSpec]:
        """The run specs of one submitted *job*: a taskloop campaign of
        ``seeds`` repetitions, optionally confined to a node lease.

        At its defaults this is the cell of :meth:`cells`, in repetition
        order.  Seeds reuse the campaign derivation
        (:func:`derive_run_seed`), so an unleased job is cache-compatible
        with the equivalent campaign cell; a leased job keys separately
        via ``lease_bits``.
        """
        cfg = self.config
        n = cfg.seeds if seeds is None else seeds
        if n < 1:
            raise ExperimentError(f"need at least one seed, got {n}")
        noise = default_noise() if cfg.with_noise else None
        asym = cfg.parsed_asym()
        return [
            RunSpec(
                benchmark=benchmark,
                scheduler=scheduler,
                seed=derive_run_seed(benchmark, scheduler, index),
                timesteps=timesteps if timesteps is not None else cfg.timesteps,
                noise=noise,
                topology=self.topology,
                lease_bits=lease_bits,
                asym=asym,
                asym_seed=cfg.asym_seed,
            )
            for index in range(n)
        ]

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        *,
        fault_hook: Callable[[Sequence[RunSpec]], None] | None = None,
    ) -> list[AppRunResult]:
        """Execute arbitrary specs through the cache, in the given order.

        Unlike :meth:`cells` this performs no cell memoisation, so it is
        safe to call concurrently from service worker threads: cache reads
        and the atomic per-run writes are the only shared state.  Cache
        lookups are serialized per process: a call looks up all its specs
        under one lock that every runner in the process shares, then
        simulates and stores its misses with the lock free.  Concurrent
        calls take the cache first come, first served.

        ``fault_hook`` is the scheduling service's fault-injection seam:
        it is invoked (with the specs) before any cache lookup or
        simulation, so a raised :class:`~repro.errors.TransientRunnerError`
        surfaces exactly where a real execution failure would — inside the
        runner call, on the worker thread.
        """
        if not specs:
            return []
        if fault_hook is not None:
            fault_hook(specs)
        fp = self.topology_fp
        for spec in specs:
            if spec.topology is not self.topology and (
                topology_fingerprint(spec.topology) != fp
            ):
                raise ExperimentError(
                    "run_specs requires specs built for this runner's machine"
                )
        keys = _spec_keys(specs, fp)
        results = self._execute(dict(zip(keys, specs)))
        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    def _execute(self, by_key: dict[str, RunSpec]) -> dict[str, AppRunResult]:
        """Resolve runs by key: cache first, then simulate the misses.

        Each simulated run is stored the moment it completes (in
        completion order under the process pool), so a crash mid-batch
        loses only the runs still executing.
        """
        results: dict[str, AppRunResult] = {}
        missing: dict[str, RunSpec] = {}
        cache = self.cache
        if cache is None:
            missing.update(by_key)
        else:
            with _READER_LOCK:
                for key, spec in by_key.items():
                    cached = cache.get(key)
                    if cached is not None:
                        results[key] = cached
                    else:
                        missing[key] = spec

        def complete(key: str, result: AppRunResult) -> None:
            results[key] = result
            if self.cache is not None:
                self.cache.put(key, result)

        if self.jobs > 1 and len(missing) > 1:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(missing))
            ) as pool:
                futures = {
                    pool.submit(execute_spec, spec): key
                    for key, spec in missing.items()
                }
                for future in as_completed(futures):
                    complete(futures[future], future.result())
        else:
            for key, spec in missing.items():
                complete(key, execute_spec(spec))
        return results

    # ------------------------------------------------------------------
    def cached_cells(self) -> dict[tuple[str, str], CellResult]:
        """Snapshot of all completed (benchmark, scheduler) cells."""
        return dict(self._cells)

    def clear(self) -> None:
        """Drop the in-memory cells (the disk cache is left untouched)."""
        self._cells.clear()
