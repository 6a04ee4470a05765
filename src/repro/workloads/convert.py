"""``omp for`` -> ``omp taskloop`` conversion tool.

The paper's benchmarks are data-parallel codes written with work-sharing
loops; the authors "developed a simple tool to convert ``omp for``
constructs into ``omp taskloop``, used solely as an experimental
instrument".  This module is that instrument for the workload model: a
tiny program IR with both construct kinds and a mechanical rewriter.

A :class:`Program` is an ordered list of parallel constructs; work-sharing
programs (all :class:`ParallelFor`) are what the ``worksharing`` scheduler
conceptually executes, and :func:`convert_for_to_taskloop` produces the
taskloop program the tasking schedulers need — preserving every workload
property and choosing a task count (``num_tasks``) the way the LLVM
runtime would (a fixed multiple of the thread count, capped by the trip
count).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import WorkloadError
from repro.memory.access import AccessPattern
from repro.workloads.base import Application, RegionSpec, TaskloopSpec

__all__ = [
    "ParallelFor",
    "Taskloop",
    "Program",
    "convert_for_to_taskloop",
    "program_to_application",
    "DEFAULT_TASKS_PER_THREAD",
]

DEFAULT_TASKS_PER_THREAD = 2


@dataclass(frozen=True)
class ParallelFor:
    """An ``#pragma omp parallel for`` loop nest."""

    name: str
    region: str
    trip_count: int
    work_seconds: float
    mem_frac: float = 0.5
    pattern: AccessPattern = AccessPattern.blocked()
    reuse: float = 0.0
    gamma: float = 0.0
    imbalance: str = "uniform"
    imbalance_cv: float = 0.0

    def __post_init__(self) -> None:
        if self.trip_count < 1:
            raise WorkloadError(f"loop {self.name!r}: trip_count must be >= 1")


@dataclass(frozen=True)
class Taskloop:
    """An ``#pragma omp taskloop`` with an explicit ``num_tasks`` clause."""

    name: str
    region: str
    trip_count: int
    num_tasks: int
    work_seconds: float
    mem_frac: float = 0.5
    pattern: AccessPattern = AccessPattern.blocked()
    reuse: float = 0.0
    gamma: float = 0.0
    imbalance: str = "uniform"
    imbalance_cv: float = 0.0


@dataclass(frozen=True)
class Program:
    """An ordered list of parallel constructs plus the data regions."""

    name: str
    regions: tuple[RegionSpec, ...]
    constructs: tuple[ParallelFor | Taskloop, ...]
    timesteps: int = 50

    def is_taskloop_program(self) -> bool:
        return all(isinstance(c, Taskloop) for c in self.constructs)


def convert_for_to_taskloop(
    program: Program,
    *,
    num_threads: int = 64,
    tasks_per_thread: int = DEFAULT_TASKS_PER_THREAD,
) -> Program:
    """Rewrite every :class:`ParallelFor` into a :class:`Taskloop`.

    ``num_tasks`` is ``tasks_per_thread * num_threads`` capped by the trip
    count, mirroring how the experimental tool sized tasks for the 64-core
    platform.  Already-converted constructs pass through unchanged.
    """
    if num_threads < 1 or tasks_per_thread < 1:
        raise WorkloadError("num_threads and tasks_per_thread must be >= 1")
    converted: list[ParallelFor | Taskloop] = []
    for c in program.constructs:
        if isinstance(c, Taskloop):
            converted.append(c)
            continue
        num_tasks = min(c.trip_count, tasks_per_thread * num_threads)
        converted.append(
            Taskloop(
                name=c.name,
                region=c.region,
                trip_count=c.trip_count,
                num_tasks=num_tasks,
                work_seconds=c.work_seconds,
                mem_frac=c.mem_frac,
                pattern=c.pattern,
                reuse=c.reuse,
                gamma=c.gamma,
                imbalance=c.imbalance,
                imbalance_cv=c.imbalance_cv,
            )
        )
    return replace(program, constructs=tuple(converted))


def program_to_application(program: Program) -> Application:
    """Lower a (fully converted) taskloop program to a runnable application."""
    if not program.is_taskloop_program():
        raise WorkloadError(
            "program still contains ParallelFor constructs; run "
            "convert_for_to_taskloop first"
        )
    loops = [
        TaskloopSpec(
            name=c.name,
            region=c.region,
            work_seconds=c.work_seconds,
            mem_frac=c.mem_frac,
            pattern=c.pattern,
            reuse=c.reuse,
            gamma=c.gamma,
            num_tasks=c.num_tasks,
            total_iters=c.trip_count,
            imbalance=c.imbalance,
            imbalance_cv=c.imbalance_cv,
        )
        for c in program.constructs
        if isinstance(c, Taskloop)
    ]
    return Application(
        name=program.name,
        regions=list(program.regions),
        loops=loops,
        timesteps=program.timesteps,
    )
