"""The one wall-clock seam for timing figures and campaigns.

``repro.bench`` is a deterministic package (DET001), yet measuring
elapsed time is this module's job.  The contradiction is resolved by
funnelling *every* wall-time read through :func:`now` — one annotated,
monotonic call site — so the lint keeps guarding the rest of the package
(and the rest of the deterministic core) while measurements stay honest.

``benchmarks/conftest.py`` (the paper-figure suite's timer) and
``scripts/run_experiments.py`` both time through here, so the two
measure wall time the same way.
"""

from __future__ import annotations

import time

__all__ = ["now"]


def now() -> float:
    """Monotonic wall-clock seconds (undefined epoch; use differences)."""
    return time.perf_counter()  # repro: noqa DET001 -- the harness's sole wall-clock seam

