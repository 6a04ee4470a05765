"""Data regions and allocation policies.

A :class:`DataRegion` is a named, contiguous virtual allocation (an array,
a grid, a sparse matrix...) whose pages live in a :class:`PageState`.  The
:class:`MemoryMap` owns all regions of one simulated application run.

Three placement policies mirror what Linux/libnuma offer:

* ``first_touch`` — pages are homed by whichever node touches them first
  (the Linux default; what the paper's benchmarks rely on);
* ``interleave`` — pages are spread round-robin over a node set at
  allocation time (``numactl --interleave``);
* ``bind`` — all pages are homed on a single node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from repro.errors import MemoryModelError
from repro.memory.pages import DEFAULT_PAGE_BYTES, PageState

__all__ = ["AllocPolicy", "DataRegion", "MemoryMap"]


class AllocPolicy(str, Enum):
    """Placement policy applied when a region is allocated."""

    FIRST_TOUCH = "first_touch"
    INTERLEAVE = "interleave"
    BIND = "bind"


@dataclass
class DataRegion:
    """A named allocation plus its page-level NUMA state.

    ``last_share`` is the region-level aggregate used by irregular
    (uniform-access) tasks: the distribution over nodes of "who most
    recently pulled this region's data".  It is an exponential blend
    updated by :meth:`blend_last_share`, cheap enough to maintain per task.
    """

    name: str
    num_bytes: int
    pages: PageState
    policy: AllocPolicy
    last_share: np.ndarray

    @property
    def num_pages(self) -> int:
        return self.pages.num_pages

    @property
    def page_bytes(self) -> int:
        return self.pages.page_bytes

    def blend_last_share(self, node: int, fraction: float) -> None:
        """Fold "``fraction`` of the region was just touched by ``node``"
        into the aggregate last-touch distribution."""
        if not (0 <= node < self.last_share.shape[0]):
            raise MemoryModelError(f"unknown node {node}")
        fraction = min(max(fraction, 0.0), 1.0)
        self.last_share *= 1.0 - fraction
        self.last_share[node] += fraction


class MemoryMap:
    """All data regions of one simulated application run."""

    def __init__(self, num_nodes: int, page_bytes: int = DEFAULT_PAGE_BYTES):
        if num_nodes < 1:
            raise MemoryModelError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self.page_bytes = page_bytes
        self._regions: dict[str, DataRegion] = {}

    def allocate(
        self,
        name: str,
        num_bytes: int,
        *,
        policy: AllocPolicy = AllocPolicy.FIRST_TOUCH,
        nodes: Iterable[int] | None = None,
        min_pages: int = 8,
    ) -> DataRegion:
        """Create a region of ``num_bytes`` under ``policy``.

        ``nodes`` selects the target node set for ``interleave`` (defaults
        to every node) or the single target node for ``bind``.
        ``min_pages`` floors the page count so small regions still expose
        placement structure.
        """
        if name in self._regions:
            raise MemoryModelError(f"region {name!r} already allocated")
        if num_bytes <= 0:
            raise MemoryModelError(f"region size must be positive, got {num_bytes}")
        num_pages = max(min_pages, -(-num_bytes // self.page_bytes))
        pages = PageState(num_pages, self.num_nodes, self.page_bytes)
        region = DataRegion(
            name=name,
            num_bytes=num_bytes,
            pages=pages,
            policy=policy,
            last_share=np.zeros(self.num_nodes),
        )
        if policy is AllocPolicy.INTERLEAVE:
            node_list = list(nodes) if nodes is not None else list(range(self.num_nodes))
            pages.interleave(0, num_pages, node_list)
        elif policy is AllocPolicy.BIND:
            node_list = list(nodes) if nodes is not None else [0]
            if len(node_list) != 1:
                raise MemoryModelError("bind policy requires exactly one node")
            pages.bind(0, num_pages, node_list[0])
        elif nodes is not None:
            raise MemoryModelError("first_touch policy does not take a node list")
        self._regions[name] = region
        return region

    def region(self, name: str) -> DataRegion:
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryModelError(f"unknown region {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __iter__(self):
        return iter(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)
