"""Page-granular memory state: home nodes (placement) and last-touch nodes.

The simulator tracks two per-page facts the ILAN evaluation hinges on:

* **home node** — where the page's backing frame lives.  Linux homes a page
  on the NUMA node of the core that first touches it (*first touch*), which
  is why deterministic task placement also determines data placement.
  ``-1`` means the page has not been touched yet.
* **last-touch node** — the NUMA node whose caches most recently pulled the
  page.  Re-running an iteration block on the node that touched its pages
  last gives cache reuse; running it elsewhere incurs coherence traffic and
  cold misses.

Pages are deliberately coarse (default 2 MiB, like transparent huge pages)
so that region state stays small and numpy-friendly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryModelError

__all__ = ["PageState", "DEFAULT_PAGE_BYTES", "UNTOUCHED"]

DEFAULT_PAGE_BYTES = 2 * 1024 * 1024
UNTOUCHED = -1


class PageState:
    """Mutable per-page home/last-touch state for one data region.

    ``home`` changes only through the mutators below (:meth:`first_touch`,
    :meth:`first_touch_pages`, :meth:`bind`, :meth:`interleave`).  Each one
    keeps the untouched-page count current and bumps :attr:`home_version`
    whenever it may have changed ``home``, so state derived from the homes
    (the node-weight vectors of :meth:`weight_memo`) is valid exactly while
    the version stands.  Last-touch state changes on every touch, is kept
    only as the ``last`` array and is never memoised: the touch mutators
    fill it, and a commit on a region with no untouched page writes it
    directly (``ChunkAccess.commit``).

    Parameters
    ----------
    num_pages:
        Number of pages in the region (>= 1).
    num_nodes:
        Number of NUMA nodes in the machine the region lives on.
    page_bytes:
        Size of one page in bytes.
    """

    __slots__ = (
        "num_pages",
        "num_nodes",
        "page_bytes",
        "home",
        "last",
        "num_untouched",
        "home_version",
        "_home_counts",
        "_memo",
        "_memo_version",
    )

    def __init__(self, num_pages: int, num_nodes: int, page_bytes: int = DEFAULT_PAGE_BYTES):
        if num_pages < 1:
            raise MemoryModelError(f"num_pages must be >= 1, got {num_pages}")
        if num_nodes < 1:
            raise MemoryModelError(f"num_nodes must be >= 1, got {num_nodes}")
        if page_bytes <= 0:
            raise MemoryModelError(f"page_bytes must be positive, got {page_bytes}")
        self.num_pages = num_pages
        self.num_nodes = num_nodes
        self.page_bytes = page_bytes
        self.home = np.full(num_pages, UNTOUCHED, dtype=np.int32)
        self.last = np.full(num_pages, UNTOUCHED, dtype=np.int32)
        # cached home histogram; index 0..num_nodes-1 per node, kept in
        # sync by the mutation helpers below.
        self._home_counts = np.zeros(num_nodes, dtype=np.int64)
        #: pages whose ``home`` is still UNTOUCHED
        self.num_untouched = num_pages
        #: bumped by every mutator that may have changed ``home``
        self.home_version = 0
        self._memo: dict = {}
        self._memo_version = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def first_touch(self, start: int, stop: int, node: int) -> int:
        """First-touch pages ``[start, stop)`` from ``node``.

        Only pages still untouched get homed; returns how many were homed.
        Also records the touch as the pages' last touch.
        """
        self._check_range(start, stop)
        self._check_node(node)
        homed = 0
        if self.num_untouched:
            sl = self.home[start:stop]
            mask = sl == UNTOUCHED
            homed = int(np.count_nonzero(mask))
            if homed:
                sl[mask] = node
                self._home_counts[node] += homed
                self.num_untouched -= homed
                self.home_version += 1
        self.last[start:stop] = node
        return homed

    def first_touch_pages(self, pages: np.ndarray, node: int) -> int:
        """First-touch the scattered pages at the distinct indices ``pages``.

        The same state change as ``first_touch(p, p + 1, node)`` for every
        ``p`` in ``pages``, in one vectorised call; returns how many pages
        were homed.
        """
        self._check_node(node)
        if pages.size == 0:
            return 0
        if int(pages.min()) < 0 or int(pages.max()) >= self.num_pages:
            raise MemoryModelError(
                f"page indices outside region of {self.num_pages} pages"
            )
        fresh = pages[self.home[pages] == UNTOUCHED]
        homed = int(fresh.size)
        if homed:
            self.home[fresh] = node
            self._home_counts[node] += homed
            self.num_untouched -= homed
            self.home_version += 1
        self.last[pages] = node
        return homed

    def bind(self, start: int, stop: int, node: int) -> None:
        """Force pages ``[start, stop)`` onto ``node`` (``numactl --membind``)."""
        self._check_range(start, stop)
        self._check_node(node)
        self._unhome(start, stop)
        self.home[start:stop] = node
        self._home_counts[node] += stop - start

    def interleave(self, start: int, stop: int, nodes: list[int]) -> None:
        """Home pages ``[start, stop)`` round-robin over ``nodes``."""
        self._check_range(start, stop)
        if not nodes:
            raise MemoryModelError("interleave requires at least one node")
        for n in nodes:
            self._check_node(n)
        self._unhome(start, stop)
        pattern = np.asarray(nodes, dtype=np.int32)
        assignment = pattern[np.arange(start, stop) % len(nodes)]
        self.home[start:stop] = assignment
        self._home_counts += np.bincount(assignment, minlength=self.num_nodes)

    def _unhome(self, start: int, stop: int) -> None:
        """Drop pages ``[start, stop)`` from the home counts before a re-home."""
        old = self.home[start:stop]
        touched = old[old != UNTOUCHED]
        if touched.size:
            self._home_counts -= np.bincount(touched, minlength=self.num_nodes)
        self.num_untouched -= (stop - start) - touched.size
        self.home_version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def weight_memo(self) -> dict:
        """Memo of node-weight vectors derived from the current homes.

        Emptied on the first call after :attr:`home_version` moved, so an
        entry is only ever served under the version it was built for.
        Callers store read-only vectors.
        """
        if self._memo_version != self.home_version:
            self._memo = {}
            self._memo_version = self.home_version
        return self._memo

    def home_histogram(self, start: int, stop: int) -> tuple[np.ndarray, int]:
        """Per-node home counts for ``[start, stop)`` plus untouched count."""
        self._check_range(start, stop)
        sl = self.home[start:stop]
        if not self.num_untouched:
            return np.bincount(sl, minlength=self.num_nodes).astype(np.float64), 0
        touched = sl[sl != UNTOUCHED]
        counts = np.bincount(touched, minlength=self.num_nodes).astype(np.float64)
        return counts, int((stop - start) - touched.size)

    def region_home_weights(self) -> np.ndarray:
        """Region-wide home distribution as weights over nodes.

        Untouched pages contribute nothing; callers must handle the
        untouched fraction (see :meth:`untouched_fraction`).
        """
        # the integer histogram's sum, without a reduction
        total = self.num_pages - self.num_untouched
        if total == 0:
            return np.zeros(self.num_nodes)
        return self._home_counts / total

    def untouched_fraction(self) -> float:
        return 1.0 - (self.num_pages - self.num_untouched) / self.num_pages

    # ------------------------------------------------------------------
    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start < stop <= self.num_pages):
            raise MemoryModelError(
                f"bad page range [{start}, {stop}) for region of {self.num_pages} pages"
            )

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise MemoryModelError(f"unknown node {node} (machine has {self.num_nodes})")
