"""Taskloop configurations: the triple ILAN tunes per taskloop.

Section 3.1 of the paper: "The execution of each taskloop is controlled by
three parameters: (1) the number of active threads ``num_threads``, (2) a
bitmap defining active NUMA nodes ``node_mask``, and (3) a task steal
policy ``steal_policy`` specifying whether inter-node stealing is permitted
(*full*) or restricted to intra-node stealing (*strict*)."
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError
from repro.topology.affinity import NodeMask

__all__ = ["StealPolicyMode", "TaskloopConfig"]


class StealPolicyMode(str, Enum):
    """Whether tasks may be stolen across NUMA nodes."""

    STRICT = "strict"  # intra-node stealing only
    FULL = "full"      # inter-node stealing permitted for stealable tasks


@dataclass(frozen=True)
class TaskloopConfig:
    """One point in ILAN's per-taskloop configuration space."""

    num_threads: int
    node_mask: NodeMask
    steal_policy: StealPolicyMode

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {self.num_threads}")
        if self.node_mask.is_empty():
            raise ConfigurationError("node_mask must select at least one node")

    @property
    def key(self) -> tuple[int, int, str]:
        """Hashable PTT key: (threads, node mask bits, steal policy)."""
        return (self.num_threads, self.node_mask.bits, self.steal_policy.value)

    def describe(self) -> str:
        return (
            f"threads={self.num_threads} nodes={self.node_mask} "
            f"steal={self.steal_policy.value}"
        )
