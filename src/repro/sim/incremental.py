"""Incremental slowdown recomputation: the production engine's core.

The reference engine (:meth:`repro.interference.model.InterferenceModel.
slowdowns`) rebuilds every active core's slowdown from scratch on every
simulation step.  Almost all of that work is redundant: slowdowns are a
pure function of ``(active, mem_frac, gamma, weights, online)`` and those
inputs change *only* when a core starts or finishes a task or flips its
online state — all logged by the :class:`CoreStates` speed-mutation choke
point (pure speed-factor transitions such as noise or DVFS change core
speed, which feeds completion times but never slowdowns, so they stay out
of the log).

:class:`IncrementalInterference` therefore caches the slowdown vector and
refreshes only what a consumed change log says is stale:

1. per-node demand is always recomputed with the reference expression —
   it is a sum over the active set, so any membership change can perturb
   every node's float sum;
2. nodes whose saturation *ratio* changed (exact bitwise ``!=`` against
   the cached vector) form the dirty-node set;
3. the rows refreshed are exactly (cores that started, finished, or
   flipped online state) ∪ (active cores with a nonzero home-node weight
   on a dirty node) — a superset of every core whose slowdown can have
   changed.  An offline core's frozen task issues no demand (the
   reference compacts over ``active & online``), which the fast path
   mirrors by zeroing the offline rows of its demand cache.

Byte-identity with the reference engine is a design invariant, not an
approximation: every refreshed quantity is recomputed with the *same
numpy expressions* the reference uses, and a skipped row is skipped only
when recomputing it would be a no-op (its inputs — weights, latency,
gamma, mem_frac and the ratio entries its nonzero weights select — are
bitwise unchanged, and row-wise ``sum(axis=1)`` reductions are
independent across rows).  The differential suite in
``tests/sim/test_engine_equivalence.py`` pins this down run-for-run
against the oracle in :mod:`repro.runtime.reference`.

One caveat is inherited from the reference expression itself: a zero
weight silences a dirty node's ratio only because ``0.0 * penalty == 0.0``
for finite penalties.  A penalty overflowing to ``inf`` (``ratio ** (1 +
gamma) > 1e308``, far outside the model's calibrated range) would poison
the reference's row with ``nan`` while the incremental path keeps its
finite cache; the equivalence suite bounds ``gamma`` accordingly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.interference.model import InterferenceModel
from repro.sim.progress import CoreStates

__all__ = ["IncrementalInterference"]


class IncrementalInterference:
    """Cached, change-driven view of one machine's interference state.

    Bound to one ``(model, states)`` pair, whose change log it is the
    only consumer of: every start/finish since the last refresh is in it.
    """

    __slots__ = (
        "model",
        "states",
        "_s",
        "_ratio",
        "_sat",
        "_sat_mean",
        "_sat_max",
        "_scalars_stale",
        "_prod",
        "_demand_full",
    )

    def __init__(self, model: InterferenceModel, states: CoreStates):
        num_nodes = states.num_nodes
        if model.latency.shape != (states.num_cores, num_nodes):
            raise SimulationError("core states do not match this machine")
        self.model = model
        self.states = states
        # caches mirror the all-idle reference outputs exactly
        self._s = np.ones(states.num_cores)
        self._ratio = np.ones(num_nodes)
        self._sat = np.zeros(num_nodes)
        self._sat_mean = 0.0
        self._sat_max = 0.0
        self._scalars_stale = False
        # Demand cache: prod[c] == mem_frac[c] * weights[c] for active
        # cores, an all-zero row otherwise, so that prod.sum(axis=0)
        # reproduces the reference's compacted active-row sum bit for bit
        # (see _padded_sum_matches_compacted).  When the identity cannot
        # be relied on, fall back to the reference node_demand per step.
        self._prod = np.zeros((states.num_cores, num_nodes))
        self._demand_full = num_nodes < 2 or not _padded_sum_matches_compacted(
            min(states.num_cores, 257), num_nodes
        )

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring the cached slowdown/saturation state up to date.

        Consumes the :class:`CoreStates` change log; a no-change call is
        O(1).
        """
        states = self.states
        changed = states.changed
        if not changed:
            return
        model = self.model
        a = states.active
        if not a.any():
            # reference all-idle outputs: s = 1, sat = 0, ratio = 1
            self._s[:] = 1.0
            self._sat[:] = 0.0
            self._ratio[:] = 1.0
            self._sat_mean = 0.0
            self._sat_max = 0.0
            self._scalars_stale = False
            if not self._demand_full:
                prod = self._prod
                for core in changed:
                    prod[core] = 0.0
            changed.clear()
            return
        # demand/saturation/ratio: recomputed on every membership change —
        # the active-set sum's rounding depends on set membership, so any
        # start/finish can move any node's demand by ulps.  The fast path
        # keeps prod rows current from the change log and reduces the full
        # matrix (idle rows are exact +0.0 identities in the sequential
        # axis-0 sum); the fallback is the reference expression verbatim.
        if self._demand_full:
            demand = model.node_demand(states)
        else:
            prod = self._prod
            mem_frac = states.mem_frac
            weights = states.weights
            online = states.online
            for core in changed:
                if a[core] and online[core]:
                    prod[core] = mem_frac[core] * weights[core]
                else:
                    prod[core] = 0.0
            demand = model.bandwidth.core_bandwidth * np.add.reduce(prod, axis=0)
        sat = demand / model.bandwidth.node_bandwidth
        ratio = np.maximum(sat, 1.0)
        dirty_nodes = np.nonzero(ratio != self._ratio)[0]
        # rows to refresh: every started/finished core, plus every active
        # core whose chunk has weight on a node whose ratio moved
        dirty = np.zeros(states.num_cores, dtype=bool)
        s = self._s
        for core in changed:
            if a[core]:
                dirty[core] = True
            else:
                s[core] = 1.0
        if dirty_nodes.size:
            np.logical_or(
                dirty,
                (states.weights[:, dirty_nodes] != 0.0).any(axis=1) & a,
                out=dirty,
            )
            dirty &= a
        cores = np.nonzero(dirty)[0]
        if cores.size:
            # identical per-row expressions to InterferenceModel.slowdowns;
            # both branches agree bitwise on every row (ratio == 1 makes the
            # penalty exactly 1.0), so the branch choice is pure speed
            if np.all(ratio == 1.0):
                mem_mult = (states.weights[cores] * model.latency[cores]).sum(axis=1)
            else:
                log_r = np.log(ratio)
                penalty = np.exp(np.outer(1.0 + states.gamma[cores], log_r))
                mem_mult = (
                    states.weights[cores] * model.latency[cores] * penalty
                ).sum(axis=1)
            mf = states.mem_frac[cores]
            s[cores] = (1.0 - mf) + mf * mem_mult
        self._sat = sat
        self._ratio = ratio
        self._scalars_stale = True
        changed.clear()

    # ------------------------------------------------------------------
    def slowdowns(self) -> np.ndarray:
        """Per-core body slowdown vector (callers must not mutate it)."""
        self.refresh()
        return self._s

    def slowdowns_and_saturation(self) -> tuple[np.ndarray, np.ndarray]:
        """Both cached vectors, refreshed; mirrors the reference API."""
        self.refresh()
        return self._s, self._sat

    def saturation_scalars(self) -> tuple[float, float]:
        """``(mean, max)`` of per-node saturation, cached across steps.

        Bit-identical to ``float(sat.mean())`` / ``float(sat.max())`` on
        the reference's saturation vector, which is how
        :meth:`repro.counters.metrics.CounterBoard.step` consumes it.
        """
        self.refresh()
        if self._scalars_stale:
            # np.add.reduce / np.maximum.reduce are the kernels ndarray
            # .mean()/.max() bottom out in (umr_sum / umr_maximum), minus
            # the python wrapper cost; the division by the int length is
            # the same op _mean performs
            sat = self._sat
            self._sat_mean = float(np.add.reduce(sat) / sat.shape[0])
            self._sat_max = float(np.maximum.reduce(sat))
            self._scalars_stale = False
        return self._sat_mean, self._sat_max


def _padded_sum_matches_compacted(num_rows: int, num_cols: int) -> bool:
    """Probe numpy's axis-0 reduction for the zero-row identity.

    The demand fast path replaces the reference's compacted active-row sum
    with a full-matrix sum whose idle rows are exactly 0.0.  The two are
    bit-identical when the axis-0 reduction accumulates rows sequentially
    (numpy's behaviour whenever the reduction stride is non-contiguous,
    i.e. ``num_cols > 1``) because ``x + 0.0 == x`` for the non-negative
    partial sums involved; pairwise blocking would regroup the tree and
    break it (observable at ``num_cols == 1``).  Probing the actual
    behaviour at startup keeps the fast path safe against numpy changes:
    on any mismatch the engine silently falls back to the reference
    expression per step.
    """
    rows = np.arange(num_rows, dtype=np.float64)[:, None]
    cols = np.arange(num_cols, dtype=np.float64)[None, :]
    # association-sensitive values: sums of reciprocals round differently
    # under almost any regrouping of the accumulation tree
    x = 1.0 / (3.0 + 5.0 * rows + 7.0 * cols)
    idx = np.arange(num_rows)
    for modulus in (2, 3, 5):
        mask = (idx % modulus) != 0
        if not mask.any():
            continue
        padded = np.where(mask[:, None], x, 0.0)
        if not np.array_equal(x[mask].sum(axis=0), padded.sum(axis=0)):
            return False
    return True
