"""Task model: taskloop work descriptions and the chunks they split into.

A :class:`TaskloopWork` is one *encounter* of an ``omp taskloop`` construct:
the total work, its memory character, and the data region it touches.  The
partitioner (:mod:`repro.runtime.taskloop`) splits it into
:class:`Chunk` tasks; the scheduler decides where chunks go; the executor
runs them on the simulated machine.

``uid`` identifies the *callsite* (not the encounter): the ILAN PTT is
keyed by it, so repeated encounters of the same loop share learned state —
exactly how the paper identifies taskloops across application iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import RuntimeModelError
from repro.memory.access import AccessPattern
from repro.memory.allocator import DataRegion

__all__ = ["TaskloopWork", "Chunk", "SerialPhase"]


@dataclass(frozen=True)
class SerialPhase:
    """A serial program region between taskloops (single-thread work)."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise RuntimeModelError(f"serial phase cannot be negative: {self.seconds}")


@dataclass
class TaskloopWork:
    """One encounter of a taskloop construct.

    Attributes
    ----------
    uid:
        Stable callsite identity; the PTT key.
    name:
        Human-readable name (for traces and reports).
    total_iters:
        Loop trip count.
    num_tasks:
        How many explicit tasks the runtime partitions the loop into.
    work_seconds:
        Total single-core base time of the whole loop body (compute plus
        uncontended local memory time), seconds.
    mem_frac:
        Fraction of ``work_seconds`` that is memory-bound.
    weights:
        Normalised per-cell work-density profile over the iteration space
        (see :func:`repro.runtime.taskloop.partition`); encodes load
        imbalance consistently for any partitioning.
    region:
        The data region the loop reads/writes.
    pattern:
        Memory access pattern over the region.
    reuse:
        Cache-reuse potential in [0, 1] when re-executed with warm caches.
    gamma:
        Contention exponent of the access pattern (0 = fair sharing).
    working_set_bytes:
        Per-node working set used for the cache-capacity discount; defaults
        to region size / number of tasks when 0.
    """

    uid: str
    name: str
    total_iters: int
    num_tasks: int
    work_seconds: float
    mem_frac: float
    weights: np.ndarray
    region: DataRegion
    pattern: AccessPattern
    reuse: float = 0.0
    gamma: float = 0.0
    working_set_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.total_iters < 1:
            raise RuntimeModelError(f"total_iters must be >= 1, got {self.total_iters}")
        if self.num_tasks < 1:
            raise RuntimeModelError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.num_tasks > self.total_iters:
            raise RuntimeModelError(
                f"cannot split {self.total_iters} iterations into {self.num_tasks} tasks"
            )
        if self.work_seconds <= 0:
            raise RuntimeModelError(f"work_seconds must be positive, got {self.work_seconds}")
        if not (0.0 <= self.mem_frac <= 1.0):
            raise RuntimeModelError(f"mem_frac must lie in [0, 1], got {self.mem_frac}")
        if not (0.0 <= self.reuse <= 1.0):
            raise RuntimeModelError(f"reuse must lie in [0, 1], got {self.reuse}")
        if self.gamma < 0:
            raise RuntimeModelError(f"gamma must be non-negative, got {self.gamma}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0 or np.any(w < 0) or w.sum() <= 0:
            raise RuntimeModelError("weights must be a non-empty non-negative vector")
        self.weights = w / w.sum()

    @property
    def effective_working_set(self) -> float:
        if self.working_set_bytes > 0:
            return self.working_set_bytes
        return self.region.num_bytes / self.num_tasks


@dataclass
class Chunk:
    """One explicit task: a contiguous block of taskloop iterations.

    ``home_node`` is the NUMA node the scheduler assigned the chunk to
    (``-1`` for topology-agnostic scheduling); ``strict`` marks ILAN's
    NUMA-strict tasks that must never migrate across nodes.
    """

    work: TaskloopWork = field(repr=False)
    index: int
    lo: int
    hi: int
    lo_frac: float
    hi_frac: float
    body_time: float
    home_node: int = -1
    strict: bool = False
    stolen: bool = False

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise RuntimeModelError(f"chunk [{self.lo}, {self.hi}) is empty")
        if self.body_time <= 0:
            raise RuntimeModelError(f"chunk body time must be positive, got {self.body_time}")
