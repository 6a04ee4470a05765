"""Execution tracing: optional structured records of a simulated run.

Tracing is off by default (it allocates); turn it on to inspect scheduler
decisions, render per-taskloop timelines, or debug workload models.  The
trace is an append-only list of typed records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TaskRecord", "TaskloopRecord", "StealRecord", "Trace"]


@dataclass(frozen=True)
class TaskRecord:
    """One executed chunk: where it ran and what it cost."""

    taskloop: str
    chunk_index: int
    core: int
    node: int
    start: float
    end: float
    base_time: float
    stolen: bool


@dataclass(frozen=True)
class StealRecord:
    """A successful steal: thief took ``chunk_index`` from ``victim_core``."""

    taskloop: str
    chunk_index: int
    thief_core: int
    victim_core: int
    remote: bool
    time: float


@dataclass(frozen=True)
class TaskloopRecord:
    """One taskloop execution: configuration used and measured time."""

    taskloop: str
    iteration: int
    num_threads: int
    node_mask_bits: int
    steal_policy: str
    start: float
    end: float
    overhead: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """Append-only run trace; disabled traces ignore all appends."""

    enabled: bool = False
    tasks: list[TaskRecord] = field(default_factory=list)
    steals: list[StealRecord] = field(default_factory=list)
    taskloops: list[TaskloopRecord] = field(default_factory=list)

    def add_task(self, record: TaskRecord) -> None:
        if self.enabled:
            self.tasks.append(record)

    def add_steal(self, record: StealRecord) -> None:
        if self.enabled:
            self.steals.append(record)

    def add_taskloop(self, record: TaskloopRecord) -> None:
        if self.enabled:
            self.taskloops.append(record)

    def clear(self) -> None:
        self.tasks.clear()
        self.steals.clear()
        self.taskloops.clear()
