"""Workload model: declarative applications made of recurring taskloops.

The paper's benchmarks are real codes; here each benchmark is a calibrated
*model* capturing the properties the evaluation depends on:

* taskloop structure (how many loops per timestep, trip counts, task
  counts) — drives scheduling decisions and overhead;
* memory intensity (``mem_frac``) and access pattern (blocked / strided /
  uniform) — drives locality sensitivity;
* contention exponent ``gamma`` — drives interference sensitivity (the
  superlinear penalty of irregular access under bandwidth saturation);
* cache-reuse potential — drives the benefit of re-running iterations on
  the node that touched their data last;
* load-imbalance profile — drives the value of dynamic load balancing.

Imbalance profiles are *program properties*: they are derived
deterministically from the application/loop names, never from the run
seed, so every scheduler sees the same work distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.memory.access import AccessPattern
from repro.memory.allocator import AllocPolicy
from repro.runtime.context import RunContext
from repro.runtime.task import SerialPhase, TaskloopWork
from repro.sim.rng import stream

__all__ = [
    "RegionSpec",
    "TaskloopSpec",
    "Application",
    "imbalance_profile",
    "PROFILE_CELLS",
    "CLUSTER_BLOCKS",
    "MIB",
]

MIB = 1024 * 1024
PROFILE_CELLS = 512
CLUSTER_BLOCKS = 16
_PROFILE_SEED = 0x11A7  # stable, independent of run seeds


def imbalance_profile(kind: str, cv: float, *, key: str, cells: int = PROFILE_CELLS) -> np.ndarray:
    """Normalised work-density profile over the iteration space.

    Kinds:

    * ``uniform`` — perfectly balanced (``cv`` ignored);
    * ``linear`` — work ramps linearly along the iteration space (typical
      of triangular loop nests); ``cv`` sets the ramp steepness;
    * ``irregular`` — per-cell lognormal weights with coefficient of
      variation ``cv`` (sparse/indirect workloads such as CG), drawn from
      a stream keyed by ``key`` so the profile is a stable property of the
      program;
    * ``clustered`` — lognormal weights drawn per *block* of adjacent
      cells (``CLUSTER_BLOCKS`` blocks over the iteration space).  Sparse
      matrices have spatially correlated row densities, so whole regions
      of the iteration space are heavy: this is the imbalance static/
      strict placement cannot absorb, while per-cell noise averages out
      over any placement.
    """
    if cells < 2:
        raise WorkloadError(f"profile needs at least 2 cells, got {cells}")
    if cv < 0:
        raise WorkloadError(f"cv must be non-negative, got {cv}")
    if kind == "uniform":
        w = np.ones(cells)
    elif kind == "linear":
        # slope chosen so std/mean == cv for the ramp a*(x - 1/2) + 1
        slope = min(cv * np.sqrt(12.0), 1.99)
        x = (np.arange(cells) + 0.5) / cells
        w = 1.0 + slope * (x - 0.5)
    elif kind == "irregular":
        if cv == 0:
            w = np.ones(cells)
        else:
            sigma2 = np.log(1.0 + cv * cv)
            rng = stream(_PROFILE_SEED, "profile", key)  # repro: noqa SEED001 -- the profile is a property of the program, keyed by `key`; a run seed must not move it
            w = rng.lognormal(mean=-sigma2 / 2.0, sigma=np.sqrt(sigma2), size=cells)
    elif kind == "clustered":
        if cv == 0:
            w = np.ones(cells)
        else:
            sigma2 = np.log(1.0 + cv * cv)
            rng = stream(_PROFILE_SEED, "profile", key)  # repro: noqa SEED001 -- the profile is a property of the program, keyed by `key`; a run seed must not move it
            blocks = rng.lognormal(
                mean=-sigma2 / 2.0, sigma=np.sqrt(sigma2), size=CLUSTER_BLOCKS
            )
            w = np.repeat(blocks, -(-cells // CLUSTER_BLOCKS))[:cells]
    else:
        raise WorkloadError(f"unknown imbalance kind {kind!r}")
    if np.any(w <= 0):
        w = np.maximum(w, 1e-9)
    return w / w.sum()


@dataclass(frozen=True)
class RegionSpec:
    """A named data allocation of the application."""

    name: str
    num_bytes: int
    policy: AllocPolicy = AllocPolicy.FIRST_TOUCH

    def __post_init__(self) -> None:
        if self.num_bytes <= 0:
            raise WorkloadError(f"region {self.name!r} must have positive size")


@dataclass(frozen=True)
class TaskloopSpec:
    """One taskloop callsite of the application, executed every timestep."""

    name: str
    region: str
    work_seconds: float
    mem_frac: float
    pattern: AccessPattern
    reuse: float = 0.0
    gamma: float = 0.0
    num_tasks: int = 256
    total_iters: int = 4096
    imbalance: str = "uniform"
    imbalance_cv: float = 0.0
    repeat: int = 1
    working_set_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.work_seconds <= 0:
            raise WorkloadError(f"loop {self.name!r}: work_seconds must be positive")
        if not (0.0 <= self.mem_frac <= 1.0):
            raise WorkloadError(f"loop {self.name!r}: mem_frac must lie in [0, 1]")
        if not (0.0 <= self.reuse <= 1.0):
            raise WorkloadError(f"loop {self.name!r}: reuse must lie in [0, 1]")
        if self.gamma < 0:
            raise WorkloadError(f"loop {self.name!r}: gamma must be non-negative")
        if self.num_tasks < 1 or self.total_iters < self.num_tasks:
            raise WorkloadError(f"loop {self.name!r}: bad task/iteration counts")
        if self.repeat < 1:
            raise WorkloadError(f"loop {self.name!r}: repeat must be >= 1")


@dataclass
class Application:
    """A runnable benchmark model (satisfies the runtime's app protocol)."""

    name: str
    regions: list[RegionSpec]
    loops: list[TaskloopSpec]
    timesteps: int = 50
    serial_seconds: float = 0.0
    _profiles: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise WorkloadError("timesteps must be >= 1")
        if not self.loops:
            raise WorkloadError("application needs at least one taskloop")
        region_names = {r.name for r in self.regions}
        if len(region_names) != len(self.regions):
            raise WorkloadError("duplicate region names")
        loop_names = [lp.name for lp in self.loops]
        if len(set(loop_names)) != len(loop_names):
            raise WorkloadError("duplicate taskloop names")
        for lp in self.loops:
            if lp.region not in region_names:
                raise WorkloadError(f"loop {lp.name!r} references unknown region {lp.region!r}")
        for lp in self.loops:
            self._profiles[lp.name] = imbalance_profile(
                lp.imbalance, lp.imbalance_cv, key=f"{self.name}.{lp.name}"
            )

    # ------------------------------------------------------------------
    # runtime application protocol
    # ------------------------------------------------------------------
    def setup(self, ctx: RunContext) -> None:
        """Allocate this application's data regions into the run context."""
        for spec in self.regions:
            ctx.mem.allocate(spec.name, spec.num_bytes, policy=spec.policy)

    def encounters(self, t: int, ctx: RunContext) -> Iterator[TaskloopWork | SerialPhase]:
        """Taskloop encounters of timestep ``t`` in program order."""
        if self.serial_seconds > 0:
            yield SerialPhase(self.serial_seconds)
        for spec in self.loops:
            region = ctx.mem.region(spec.region)
            for _ in range(spec.repeat):
                yield TaskloopWork(
                    uid=f"{self.name}.{spec.name}",
                    name=spec.name,
                    total_iters=spec.total_iters,
                    num_tasks=spec.num_tasks,
                    work_seconds=spec.work_seconds,
                    mem_frac=spec.mem_frac,
                    weights=self._profiles[spec.name],
                    region=region,
                    pattern=spec.pattern,
                    reuse=spec.reuse,
                    gamma=spec.gamma,
                    working_set_bytes=spec.working_set_bytes,
                )

    # ------------------------------------------------------------------
    def loop_uids(self) -> list[str]:
        return [f"{self.name}.{lp.name}" for lp in self.loops]
