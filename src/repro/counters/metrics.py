"""Hardware-performance-counter-style metrics for simulated runs.

The ILAN artifact exposes a ``PERF_COUNTERS`` build flag and the paper
notes that "hardware performance counters can easily be integrated into
the ILAN scheduler and used as a basis for the selection of taskloop
configuration".  This module is that integration for the simulated
platform: the executor samples counter-like quantities while a taskloop
runs, and counter-aware schedulers (see :mod:`repro.counters.hints`) read
them to shorten the exploration.

Counters per taskloop execution:

* ``mem_time_weighted_saturation`` — time-integral of the mean per-node
  ``demand / bandwidth`` ratio over the execution, divided by elapsed
  time: > 1 means memory controllers were oversubscribed on average
  (the signature of interference moldability can relieve);
* ``peak_saturation`` — the worst per-node ratio observed;
* ``bytes_total`` — modelled DRAM traffic, for the energy model, and
  ``bytes_remote``, its part served by a node other than the executing
  core's (the locality signal);
* ``busy_time`` / ``idle_time`` — core-seconds of work vs. idling among
  the participating threads (load-balance signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

__all__ = ["TaskloopCounters", "CounterBoard"]


@dataclass
class TaskloopCounters:
    """Counter sample of one taskloop execution."""

    uid: str
    elapsed: float = 0.0
    sat_time_integral: float = 0.0
    peak_saturation: float = 0.0
    bytes_total: float = 0.0
    bytes_remote: float = 0.0
    busy_time: float = 0.0
    idle_time: float = 0.0

    @property
    def avg_saturation(self) -> float:
        """Time-averaged mean node saturation over the execution."""
        return self.sat_time_integral / self.elapsed if self.elapsed > 0 else 0.0


class CounterBoard:
    """Collects counter samples for every taskloop execution of a run.

    The executor drives it through :meth:`begin`, :meth:`step` (once per
    simulation advance, with the pre-advance machine state) and
    :meth:`finish`; schedulers read :meth:`last` / :meth:`history`.
    Disabled boards ignore everything at near-zero cost.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._current: TaskloopCounters | None = None
        self._history: dict[str, list[TaskloopCounters]] = {}

    # ------------------------------------------------------------------
    def begin(self, uid: str) -> None:
        if not self.enabled:
            return
        if self._current is not None:
            raise SimulationError("counter sampling already active; nested taskloops?")
        self._current = TaskloopCounters(uid=uid)

    def step(
        self,
        dt: float,
        saturation: np.ndarray,
        active_cores: int,
        participating: int,
    ) -> None:
        """Integrate one simulation step of length ``dt``."""
        cur = self._current
        if not self.enabled or cur is None or dt <= 0:
            return
        mean_sat = float(saturation.mean())
        cur.sat_time_integral += mean_sat * dt
        cur.peak_saturation = max(cur.peak_saturation, float(saturation.max()))
        cur.busy_time += active_cores * dt
        cur.idle_time += max(participating - active_cores, 0) * dt

    def step_scalars(
        self,
        dt: float,
        mean_sat: float,
        max_sat: float,
        active_cores: int,
        participating: int,
    ) -> None:
        """Integrate one step from precomputed saturation scalars.

        The incremental engine caches ``float(sat.mean())`` and
        ``float(sat.max())`` across steps whose saturation vector did not
        change; the accumulation below is expression-for-expression the
        same as :meth:`step`, so the two entry points are bit-identical.
        """
        cur = self._current
        if not self.enabled or cur is None or dt <= 0:
            return
        cur.sat_time_integral += mean_sat * dt
        cur.peak_saturation = max(cur.peak_saturation, max_sat)
        cur.busy_time += active_cores * dt
        cur.idle_time += max(participating - active_cores, 0) * dt

    def add_chunk_traffic(self, bytes_total: float, bytes_remote: float) -> None:
        cur = self._current
        if not self.enabled or cur is None:
            return
        cur.bytes_total += bytes_total
        cur.bytes_remote += bytes_remote

    def finish(self, elapsed: float) -> TaskloopCounters | None:
        """Close the active sample; returns it (``None`` when disabled)."""
        if not self.enabled:
            return None
        cur = self._current
        if cur is None:
            raise SimulationError("no counter sampling active")
        cur.elapsed = elapsed
        self._history.setdefault(cur.uid, []).append(cur)
        self._current = None
        return cur

    def abort(self) -> None:
        """Drop an in-flight sample (error-path cleanup)."""
        self._current = None

    # ------------------------------------------------------------------
    def last(self, uid: str) -> TaskloopCounters | None:
        samples = self._history.get(uid)
        return samples[-1] if samples else None

    def history(self, uid: str) -> list[TaskloopCounters]:
        return list(self._history.get(uid, []))

    def uids(self) -> list[str]:
        return sorted(self._history)
