"""Taskloop partitioning: split an iteration space into chunk tasks.

Mirrors what the LLVM runtime does when a thread encounters ``omp
taskloop``: the trip count is divided into ``num_tasks`` near-equal
contiguous blocks (the runtime's default when ``grainsize`` is not given).

Load imbalance is carried by the work's *weight profile*: a normalised
density vector over the iteration space.  A chunk's base time is the total
loop time multiplied by the profile mass its iteration range covers, so the
same profile yields consistent costs for any partitioning — including the
one-block-per-thread partitioning of the static work-sharing baseline.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import RuntimeModelError
from repro.runtime.task import Chunk, TaskloopWork

__all__ = ["partition", "chunk_bounds", "profile_mass"]


def chunk_bounds(total_iters: int, num_chunks: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ``[lo, hi)`` blocks covering ``total_iters``.

    The first ``total_iters % num_chunks`` blocks get one extra iteration,
    matching LLVM's taskloop splitting.
    """
    if num_chunks < 1:
        raise RuntimeModelError(f"num_chunks must be >= 1, got {num_chunks}")
    if num_chunks > total_iters:
        raise RuntimeModelError(
            f"cannot split {total_iters} iterations into {num_chunks} chunks"
        )
    base, extra = divmod(total_iters, num_chunks)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for i in range(num_chunks):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def profile_mass(weights: np.ndarray, lo_frac: float, hi_frac: float) -> float:
    """Fraction of total work inside the fractional span ``[lo_frac, hi_frac)``.

    The weight vector is interpreted as a piecewise-constant density over
    ``[0, 1)``; partial cells contribute proportionally, so masses of a
    tiling exactly sum to 1.
    """
    n = weights.size
    if not (0.0 <= lo_frac <= hi_frac <= 1.0 + 1e-12):
        raise RuntimeModelError(f"bad span [{lo_frac}, {hi_frac})")
    a = lo_frac * n
    b = min(hi_frac, 1.0) * n
    i0, i1 = int(a), min(int(np.ceil(b)), n)
    if i0 >= i1:
        return 0.0
    mass = float(weights[i0:i1].sum())
    mass -= (a - i0) * float(weights[i0])
    if i1 > 0 and b < i1:
        mass -= (i1 - b) * float(weights[i1 - 1])
    return max(mass, 0.0)


def partition(work: TaskloopWork, num_chunks: int | None = None) -> list[Chunk]:
    """Split ``work`` into chunk tasks with profile-weighted base times.

    ``num_chunks`` overrides ``work.num_tasks`` (the work-sharing scheduler
    passes the thread count to get one block per thread).
    """
    n_chunks = work.num_tasks if num_chunks is None else num_chunks
    total = work.total_iters
    bounds = chunk_bounds(total, n_chunks)
    bodies = _bodies(total, n_chunks, work.work_seconds, work.weights.tobytes())
    return [
        Chunk(
            work=work,
            index=i,
            lo=lo,
            hi=hi,
            lo_frac=lo / total,
            hi_frac=hi / total,
            body_time=body,
        )
        for i, ((lo, hi), body) in enumerate(zip(bounds, bodies))
    ]


@functools.lru_cache(maxsize=256)
def _bodies(
    total_iters: int, n_chunks: int, work_seconds: float, weights: bytes
) -> tuple[float, ...]:
    """Profile-weighted base time of every chunk.

    A pure function of its arguments, memoised: a loop meets the same
    trip count, profile and chunk count on every timestep, and the
    profile masses cost more than building the chunks.  The profile
    travels as its raw bytes so the key hashes by value.
    """
    profile = np.frombuffer(weights)
    bodies = []
    for lo, hi in chunk_bounds(total_iters, n_chunks):
        mass = profile_mass(profile, lo / total_iters, hi / total_iters)
        body = work_seconds * mass
        if body <= 0.0:
            # degenerate profile cell: give the chunk a floor cost so the
            # simulator never sees a zero-length task
            body = work_seconds * 1e-9
        bodies.append(body)
    return tuple(bodies)
