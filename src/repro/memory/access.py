"""Access patterns: how a chunk of loop iterations maps onto region pages.

The workload models describe each taskloop's memory behaviour with one of
three patterns; the ILAN evaluation depends on exactly this distinction:

* ``BLOCKED`` — iteration *i* touches the pages at the matching relative
  offset of the region (dense stencils, grids, matmul tiles).  Adjacent
  iterations share pages, so placement determines locality: this is where
  hierarchical/deterministic distribution wins.
* ``UNIFORM`` — every iteration touches pages spread across the whole
  region (sparse matvec, indirect indexing, hash-ordered traversals).
  Placement barely changes locality, but every access competes for memory
  bandwidth: this is where moldability wins.
* ``STRIDED(alpha)`` — a mixture: fraction ``alpha`` of the traffic behaves
  blocked, the rest uniform (FFT transposes and similar long-distance
  communication steps).

``ChunkAccess`` is the per-task view the interference model consumes: a
weight vector over NUMA nodes (where the bytes come from) plus the fraction
of pages whose last touch was local (cache-reuse potential).  ``commit``
applies the side effects of actually running the chunk: first-touch homing
and last-touch updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MemoryModelError
from repro.memory.allocator import DataRegion

__all__ = ["AccessPattern", "ChunkAccess", "chunk_access"]


@dataclass(frozen=True)
class AccessPattern:
    """Memory access pattern of a taskloop over its region.

    ``blocked_fraction`` is the share of traffic with blocked behaviour;
    1.0 is fully blocked, 0.0 fully uniform.  Use the constructors
    :meth:`blocked`, :meth:`uniform` and :meth:`strided`.
    """

    blocked_fraction: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.blocked_fraction <= 1.0):
            raise MemoryModelError(
                f"blocked_fraction must lie in [0, 1], got {self.blocked_fraction}"
            )

    @staticmethod
    def blocked() -> "AccessPattern":
        return AccessPattern(blocked_fraction=1.0)

    @staticmethod
    def uniform() -> "AccessPattern":
        return AccessPattern(blocked_fraction=0.0)

    @staticmethod
    def strided(alpha: float) -> "AccessPattern":
        return AccessPattern(blocked_fraction=alpha)

    @property
    def is_blocked(self) -> bool:
        return self.blocked_fraction == 1.0

    @property
    def is_uniform(self) -> bool:
        return self.blocked_fraction == 0.0


@dataclass(slots=True)
class ChunkAccess:
    """Resolved memory view of one chunk about to execute on ``exec_node``.

    Attributes
    ----------
    node_weights:
        Weights over NUMA nodes summing to 1: the fraction of this chunk's
        memory traffic served by each node's memory controller.
    reuse_fraction:
        Fraction of the chunk's pages whose last toucher is the executing
        node; scales the workload's cache-reuse potential.
    """

    region: DataRegion
    exec_node: int
    lo_frac: float
    hi_frac: float
    pattern: AccessPattern
    node_weights: np.ndarray
    reuse_fraction: float
    _page_span: tuple[int, int] | None

    def commit(self) -> None:
        """Apply the side effects of executing the chunk on ``exec_node``.

        Blocked part: first-touch any untouched pages of the chunk's span
        and mark the span as last touched by the executing node.  Uniform
        part: first-touch a proportional slice of still-untouched pages
        (scattered, matching how irregular first sweeps behave) and blend
        the region-level last-touch share.
        """
        bf = self.pattern.blocked_fraction
        span_frac = self.hi_frac - self.lo_frac
        pages = self.region.pages
        # with every page homed, a touch homes nothing and only writes
        # last-touch state; the span and node were checked on resolution
        homed = not pages.num_untouched
        if bf > 0.0 and self._page_span is not None:
            start, stop = self._page_span
            if homed:
                pages.last[start:stop] = self.exec_node
            else:
                pages.first_touch(start, stop, self.exec_node)
        if bf < 1.0:
            if not homed:
                untouched = np.flatnonzero(pages.home == -1)
                want = int(round(span_frac * pages.num_pages * (1.0 - bf)))
                if want > 0:
                    take = untouched[:: max(1, untouched.size // want)][:want]
                    pages.first_touch_pages(take, self.exec_node)
            self.region.blend_last_share(self.exec_node, span_frac * (1.0 - bf))


def chunk_access(
    region: DataRegion,
    pattern: AccessPattern,
    lo_frac: float,
    hi_frac: float,
    exec_node: int,
) -> ChunkAccess:
    """Resolve where a chunk's memory traffic goes, given current page state.

    ``lo_frac``/``hi_frac`` position the chunk inside the taskloop's
    iteration space (and therefore inside the region for the blocked part).
    """
    if not (0.0 <= lo_frac < hi_frac <= 1.0 + 1e-12):
        raise MemoryModelError(f"bad chunk span [{lo_frac}, {hi_frac})")
    pages = region.pages
    num_nodes = pages.num_nodes
    if not (0 <= exec_node < num_nodes):
        raise MemoryModelError(f"unknown node {exec_node}")

    bf = pattern.blocked_fraction
    reuse = 0.0
    span: tuple[int, int] | None = None
    if bf > 0.0:
        # DataRegion.page_span of [lo_frac, min(hi_frac, 1)), whose span
        # check only adds lo_frac < 1 to the one above
        if lo_frac >= 1.0:
            raise MemoryModelError(f"bad span [{lo_frac}, {min(hi_frac, 1.0)})")
        n = pages.num_pages
        start = min(int(lo_frac * n), n - 1)
        stop = n if hi_frac >= 1.0 else int(hi_frac * n)
        span = (start, min(max(stop, start + 1), n))
    # the weights depend on the homes only: reuse them while the region's
    # home version stands (the memo empties itself when it moves).  The
    # executing node enters only through the untouched pages it would
    # first-touch; with none left its share is exactly 0 (``counts[node]
    # += 0``, ``untouched_fraction() == 0.0``), so the key drops the node
    memo = pages.weight_memo()
    key = (span, exec_node if pages.num_untouched else None, bf)
    weights = memo.get(key)
    if weights is None:
        # each part is non-negative, so starting from the first part is
        # bitwise the same as adding it to zeros
        if span is not None:
            counts, untouched = pages.home_histogram(span[0], span[1])
            # untouched pages will be first-touched by the executing node
            counts[exec_node] += untouched
            # integer-valued counts: their sum is exactly the page count
            weights = bf * counts / (span[1] - span[0])
        if bf < 1.0:
            home_w = pages.region_home_weights()
            untouched_frac = pages.untouched_fraction()
            uni = home_w * (1.0 - untouched_frac)
            uni[exec_node] += untouched_frac
            total = uni.sum()
            if total <= 0.0:
                uni = np.zeros(num_nodes)
                uni[exec_node] = 1.0
                total = 1.0
            part = (1.0 - bf) * uni / total
            if weights is None:
                weights = part
            else:
                weights += part
        weights.flags.writeable = False
        memo[key] = weights

    if span is not None:
        # the span's share of pages last touched by the node; spans are a
        # few pages, so counting in a list beats a NumPy compare and reduce
        start, stop = span
        reuse += bf * (float(pages.last[start:stop].tolist().count(exec_node)) / (stop - start))
    if bf < 1.0:
        reuse += (1.0 - bf) * float(region.last_share[exec_node])

    # positional: one is built per task start
    return ChunkAccess(region, exec_node, lo_frac, hi_frac, pattern, weights, reuse, span)
