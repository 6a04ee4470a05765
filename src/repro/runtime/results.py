"""Result records: per-taskloop measurements and whole-run aggregates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.counters.metrics import TaskloopCounters
from repro.runtime.overhead import OverheadLedger

__all__ = ["TaskloopResult", "AppRunResult"]


@dataclass
class TaskloopResult:
    """Measurements of one taskloop execution.

    ``node_perf`` is the per-NUMA-node throughput observed during the
    execution (completed base work per busy second; ``nan`` for nodes that
    executed nothing).  This is the performance tracing ILAN's PTT consumes
    for node-mask selection.
    """

    uid: str
    name: str
    elapsed: float
    num_threads: int
    node_mask_bits: int
    steal_policy: str
    overhead: OverheadLedger
    node_perf: np.ndarray
    node_busy: np.ndarray
    tasks_executed: int
    steals_local: int
    steals_remote: int
    counters: TaskloopCounters | None = None

    @property
    def overhead_total(self) -> float:
        return self.overhead.total


@dataclass
class AppRunResult:
    """Aggregates of one application run under one scheduler."""

    app_name: str
    scheduler: str
    seed: int
    total_time: float
    taskloops: list[TaskloopResult] = field(default_factory=list)

    @property
    def total_overhead(self) -> float:
        return sum(r.overhead_total for r in self.taskloops)

    @property
    def weighted_avg_threads(self) -> float:
        """Execution-time-weighted average active thread count (Figure 3)."""
        total = sum(r.elapsed for r in self.taskloops)
        if total <= 0:
            return 0.0
        return sum(r.num_threads * r.elapsed for r in self.taskloops) / total

    def loop_times(self, uid: str) -> list[float]:
        """Elapsed times of every execution of taskloop ``uid``, in order."""
        return [r.elapsed for r in self.taskloops if r.uid == uid]
