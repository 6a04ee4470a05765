"""Scheduling-overhead cost model and its accounting.

The paper approximates scheduler overhead "by accumulating the time spent
in the core scheduling components of the runtime" (Section 5.5).  The
simulator charges explicit costs for those components and accumulates them
per run, which is what the Figure 5 benchmark reports:

* task creation — the encountering thread partitions the loop and enqueues
  tasks serially before workers start;
* dequeue — a worker taking a task from its own queue;
* steals — local (same NUMA node) and remote (cross-node; pricier because
  the deque's cache lines bounce across the interconnect);
* barrier — taskloop completion synchronisation, growing with the number
  of active threads (fan-in);
* ILAN-specific costs: configuration selection and the PTT update.

All values are seconds; defaults are microsecond-scale, calibrated so that
overheads sit in the low percent range of millisecond-scale taskloops, as
in the paper's runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["OverheadParams", "OverheadLedger", "COMPONENTS"]

_US = 1e-6

#: The scheduling components an :class:`OverheadLedger` accumulates, in
#: field order (the order :attr:`OverheadLedger.total` sums them in).
COMPONENTS = (
    "task_create",
    "dequeue",
    "steal_local",
    "steal_remote",
    "steal_fail",
    "barrier",
    "fork",
    "select",
    "ptt_update",
)


@dataclass(frozen=True)
class OverheadParams:
    """Unit costs of the runtime's scheduling components (seconds)."""

    task_create: float = 0.25 * _US
    dequeue: float = 0.20 * _US
    steal_local: float = 1.2 * _US
    steal_remote: float = 2.5 * _US
    steal_fail: float = 0.15 * _US
    barrier_base: float = 2.0 * _US
    barrier_per_thread: float = 0.30 * _US
    worksharing_fork: float = 3.0 * _US
    ilan_select: float = 2.0 * _US
    ilan_ptt_update: float = 1.0 * _US

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"overhead {name} must be non-negative")

    def barrier_cost(self, num_threads: int) -> float:
        """Fan-in synchronisation cost for ``num_threads`` active threads."""
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
        return self.barrier_base + self.barrier_per_thread * num_threads


@dataclass
class OverheadLedger:
    """Accumulated scheduling overhead of one run, split by component."""

    task_create: float = 0.0
    dequeue: float = 0.0
    steal_local: float = 0.0
    steal_remote: float = 0.0
    steal_fail: float = 0.0
    barrier: float = 0.0
    fork: float = 0.0
    select: float = 0.0
    ptt_update: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def charge(self, component: str, amount: float, count: int = 1) -> None:
        """Add ``amount`` seconds and ``count`` events to ``component``.

        Only the names in :data:`COMPONENTS` are components; any other
        name (including the ledger's other attributes, ``counts`` and
        ``total``) raises :class:`ConfigurationError`.
        """
        if component not in COMPONENTS:
            raise ConfigurationError(f"unknown overhead component {component!r}")
        # the components are plain instance fields: update them by name in
        # the instance dict (this runs on every dequeue and steal)
        fields = self.__dict__
        fields[component] += amount
        counts = self.counts
        counts[component] = counts.get(component, 0) + count

    @property
    def total(self) -> float:
        """Sum of every component, added in :data:`COMPONENTS` order."""
        fields = self.__dict__
        total = fields[COMPONENTS[0]]
        for name in COMPONENTS[1:]:
            total += fields[name]
        return total
