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
the per-row operands of its expression, and refreshes from a consumed
change log:

1. each started, finished or flipped core's operands — ``weights ×
   latency``, ``1 + gamma``, ``1 - mem_frac`` and its demand row — are
   formed once, from the log, with the reference's own expressions; an
   offline core's frozen task issues no demand (the reference compacts
   over ``active & online``), which the fast path mirrors by zeroing the
   offline rows of its demand cache;
2. per-node demand is always recomputed with the reference expression —
   it is a sum over the active set, so any membership change can perturb
   every node's float sum — and with it saturation and ratio;
3. every slowdown row is then recomputed from the cached operands in one
   maskless pass: a node's ratio feeds every row with weight on it, and
   selecting the rows whose inputs moved costs more NumPy calls than it
   saves.  The one exception selects nothing: when no node is saturated
   a row is ``1 - mem_frac + mem_frac * rowsum(weights × latency)``, a
   function of its own operands alone, so an unsaturated refresh that
   follows an unsaturated one rewrites only the logged rows.

Byte-identity with the reference engine is a design invariant, not an
approximation: every refreshed quantity is recomputed with the *same
numpy expressions* the reference uses, on the same operands in the same
order (row-wise ``sum(axis=1)`` reductions are independent across rows,
and an idle row recomputes to exactly the reference's ``1.0``).  The
differential suite in ``tests/sim/test_engine_equivalence.py`` pins this
down run-for-run against the oracle in :mod:`repro.runtime.reference`.

One caveat is inherited from the reference expression itself: an idle
row (and a zero weight) contributes nothing only because ``0.0 * penalty
== 0.0`` for finite penalties.  A penalty overflowing to ``inf`` (``ratio
** (1 + gamma) > 1e308``, far outside the model's calibrated range) would
turn those products into ``nan``; the equivalence suite bounds ``gamma``
accordingly.
"""

from __future__ import annotations

import functools

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
        "_sat",
        "_sat_mean",
        "_sat_max",
        "_mean_stale",
        "_prod",
        "_demand_full",
        "_wl",
        "_g1",
        "_omf",
        "_exponents",
        "_rows",
        "_rows_exact",
        "_unsaturated",
        "_ratio",
        "_wlp",
        "_mem_mult",
    )

    def __init__(self, model: InterferenceModel, states: CoreStates):
        num_nodes = states.num_nodes
        num_cores = states.num_cores
        if model.latency.shape != (num_cores, num_nodes):
            raise SimulationError("core states do not match this machine")
        self.model = model
        self.states = states
        # caches mirror the all-idle reference outputs exactly
        self._s = np.ones(num_cores)
        self._sat = np.zeros(num_nodes)
        self._sat_mean = 0.0
        self._sat_max = 0.0
        self._mean_stale = False
        # Demand cache: prod[c] == mem_frac[c] * weights[c] for active
        # cores, an all-zero row otherwise, so that prod.sum(axis=0)
        # reproduces the reference's compacted active-row sum bit for bit
        # (see _padded_sum_matches_compacted).  When the identity cannot
        # be relied on, fall back to the reference node_demand per step.
        self._prod = np.zeros((num_cores, num_nodes))
        self._demand_full = num_nodes < 2 or not _padded_sum_matches_compacted(
            min(num_cores, 257), num_nodes
        )
        # Per-row operands of the slowdown expression, formed once per task
        # start from the change log: weights * latency, 1 + gamma and
        # 1 - mem_frac.  Idle rows hold 0, 0 and 1, so an idle row that is
        # recomputed comes out exactly 1.0, the reference's idle value.
        self._wl = np.zeros((num_cores, num_nodes))
        self._g1 = np.zeros(num_cores)
        self._omf = np.ones(num_cores)
        # active rows per distinct 1 + gamma
        self._exponents: dict[float, int] = {}
        # each core's (weights, latency, wl, prod) row views, built once
        self._rows = list(zip(states.weights, model.latency, self._wl, self._prod))
        # an unsaturated refresh after an unsaturated one rewrites only the
        # logged rows, each from a 1-D reduce of its wl row (probed)
        self._rows_exact = _row_reduce_matches_axis_reduce(num_cores, num_nodes)
        self._unsaturated = False
        # saturated-branch buffers
        self._ratio = np.empty(num_nodes)
        self._wlp = np.empty((num_cores, num_nodes))
        self._mem_mult = np.empty(num_cores)

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
        online = states.online
        mem_frac = states.mem_frac
        gamma = states.gamma
        rows = self._rows
        g1 = self._g1
        omf = self._omf
        exponents = self._exponents
        # the per-row operands and demand rows of every started, finished
        # or flipped core, with the reference's own expressions; a core
        # that finished and started again this step is logged twice but
        # rebuilt once, from its current state
        logged = changed if len(changed) == 1 else set(changed)
        for core in logged:
            w_row, lat_row, wl_row, prod_row = rows[core]
            old = g1[core]
            if a[core]:
                np.multiply(w_row, lat_row, out=wl_row)
                new = 1.0 + gamma[core]
                omf[core] = 1.0 - mem_frac[core]
                if online[core]:
                    np.multiply(mem_frac[core], w_row, out=prod_row)
                else:
                    prod_row.fill(0.0)
            else:
                new = 0.0
                wl_row.fill(0.0)
                omf[core] = 1.0
                prod_row.fill(0.0)
            if new != old:
                g1[core] = new
                if old:
                    exponents[old] -= 1
                    if not exponents[old]:
                        del exponents[old]
                if new:
                    exponents[new] = exponents.get(new, 0) + 1
        # demand/saturation/ratio: recomputed on every membership change —
        # the active-set sum's rounding depends on set membership, so any
        # start/finish can move any node's demand by ulps.  The fast path
        # reduces the full prod matrix (idle rows are exact +0.0
        # identities in the sequential axis-0 sum); the fallback is the
        # reference expression verbatim.
        if self._demand_full:
            demand = model.node_demand(states)
        else:
            demand = model.bandwidth.core_bandwidth * np.add.reduce(self._prod, axis=0)
        sat = demand / model.bandwidth.node_bandwidth
        # the saturation maximum feeds the counters and decides the branch
        # below: every ratio max(sat, 1) is 1.0 exactly when no saturation
        # exceeds 1.0
        sat_max = float(np.maximum.reduce(sat))
        s = self._s
        # with the per-row expressions of InterferenceModel.slowdowns; both
        # branches agree bitwise on every row (ratio == 1 makes the penalty
        # exactly 1.0), so the branch choice is pure speed
        if sat_max <= 1.0:
            if self._unsaturated and self._rows_exact:
                # no ratio moved and no other row's operands did: rewrite
                # the logged rows, each from its own operands
                add = np.add.reduce
                for core in logged:
                    s[core] = omf[core] + mem_frac[core] * add(rows[core][2])
            else:
                mem_mult = np.add.reduce(self._wl, axis=1, out=self._mem_mult)
                np.multiply(mem_frac, mem_mult, out=mem_mult)
                np.add(omf, mem_mult, out=s)
            self._unsaturated = True
        else:
            log_r = np.maximum(sat, 1.0, out=self._ratio)
            np.log(log_r, out=log_r)
            wlp = self._wlp
            if len(exponents) == 1:
                # one exponent on every active row (one taskloop runs at a
                # time): its penalty row, broadcast; idle rows have wl = 0
                # and take any finite penalty
                (g,) = exponents
                np.multiply(g, log_r, out=log_r)
                np.exp(log_r, out=log_r)
                np.multiply(self._wl, log_r, out=wlp)
            else:
                np.multiply.outer(g1, log_r, out=wlp)
                np.exp(wlp, out=wlp)
                np.multiply(self._wl, wlp, out=wlp)
            mem_mult = np.add.reduce(wlp, axis=1, out=self._mem_mult)
            np.multiply(mem_frac, mem_mult, out=mem_mult)
            np.add(omf, mem_mult, out=s)
            self._unsaturated = False
        self._sat = sat
        self._sat_max = sat_max
        self._mean_stale = True
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
        if self._mean_stale:
            # np.add.reduce / np.maximum.reduce (in refresh) are the kernels
            # ndarray .mean()/.max() bottom out in (umr_sum / umr_maximum),
            # minus the python wrapper cost; the division by the int length
            # is the same op _mean performs
            sat = self._sat
            self._sat_mean = float(np.add.reduce(sat) / sat.shape[0])
            self._mean_stale = False
        return self._sat_mean, self._sat_max


@functools.cache
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
    expression per step.  The answer depends on numpy and the shape only,
    so it is computed once per shape and process.
    """
    x = _association_sensitive(num_rows, num_cols)
    idx = np.arange(num_rows)
    for modulus in (2, 3, 5):
        mask = (idx % modulus) != 0
        if not mask.any():
            continue
        padded = np.where(mask[:, None], x, 0.0)
        if not np.array_equal(x[mask].sum(axis=0), padded.sum(axis=0)):
            return False
    return True


@functools.cache
def _row_reduce_matches_axis_reduce(num_rows: int, num_cols: int) -> bool:
    """Probe numpy's last-axis reduction for the one-row identity.

    An unsaturated refresh that follows an unsaturated one rewrites only
    the logged rows, each from ``np.add.reduce(wl[c])``, where the
    every-row pass takes row ``c`` of ``np.add.reduce(wl, axis=1)``.  The
    two are bit-identical when numpy reduces a contiguous 1-D row exactly
    as it reduces each row of a C-contiguous matrix along its last axis,
    which holds for today's numpy but is behaviour, not a guarantee.  On
    any mismatch the refresh keeps the every-row pass.  Computed once per
    shape and process.
    """
    x = _association_sensitive(num_rows, num_cols)
    whole = np.add.reduce(x, axis=1)
    one_by_one = np.array([np.add.reduce(row) for row in x])
    return whole.tobytes() == one_by_one.tobytes()


def _association_sensitive(num_rows: int, num_cols: int) -> np.ndarray:
    """A C-contiguous matrix whose row and column sums round differently
    under almost any regrouping of the accumulation tree (sums of
    reciprocals)."""
    rows = np.arange(num_rows, dtype=np.float64)[:, None]
    cols = np.arange(num_cols, dtype=np.float64)[None, :]
    return 1.0 / (3.0 + 5.0 * rows + 7.0 * cols)
