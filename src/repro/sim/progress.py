"""Rate-based task progress: the vectorised per-core execution state.

Tasks do not run for a precomputed duration; they hold *remaining base
work* (seconds under ideal conditions) and progress at a rate set by the
current interference state.  Whenever any core starts or finishes a task
the rates change, so the executor advances the whole machine in variable
steps:

1. compute per-core slowdowns from the interference model,
2. find the earliest completion (or external event),
3. advance every active core by that wall-time step,
4. handle completions / dispatch new work, repeat.

All state is structure-of-arrays over cores so that one step costs a
handful of numpy operations regardless of core count.

A task's cost is split into a *body* (subject to slowdown ``s >= 1``) and
*runtime overhead* (dequeue/steal/bookkeeping, burned at core speed,
unaffected by memory contention).  Overhead is burned first, matching a
worker that pays scheduling costs before touching the task body.

Speed mutations — noise episodes, DVFS steps, thermal throttling,
transient co-tenants, core offlining (see
:mod:`repro.interference.timeline`) — all flow through one choke point:
:meth:`CoreStates.set_speed_layer` / :meth:`CoreStates.set_online`.  The
choke point composes named multiplicative factor layers over the base
speeds, maintains the offline mask, bumps :attr:`CoreStates.speed_epoch`
so outstanding completion predictions are invalidated (the
stale-prediction guard in :meth:`CoreStates.advance`), and records online
transitions in the change log the incremental engine consumes.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.errors import SimulationError

__all__ = ["CoreStates", "EPS"]

EPS = 1e-12


class CoreStates:
    """Structure-of-arrays execution state for every core of the machine.

    Attributes (all indexed by core id)
    -----------------------------------
    active:
        Whether the core is currently executing a task.
    rem:
        Remaining base-time of the task body, seconds.
    ov:
        Remaining runtime-overhead time, seconds (burned before the body).
    mem_frac:
        Fraction of the task body that is memory-bound (0 = pure compute).
    gamma:
        Contention exponent of the running task's access pattern.
    weights:
        ``(num_cores, num_nodes)`` home-node weights of the running chunks.
    speed:
        Current core speed: base speed times the product of all factor
        layers, exactly ``0.0`` for offline cores.
    speed_div:
        Division-safe view of ``speed``: identical (the same array) while
        every core is online; offline lanes hold ``1.0`` so maskless
        ``x / speed_div`` never divides by zero.  Multiply by ``speed``,
        divide by ``speed_div``.
    unit_speed:
        Whether every core is online at speed exactly ``1.0``.  In IEEE
        arithmetic ``x * 1.0`` and ``x / 1.0`` are ``x`` for every value
        (signed zeros and infinities included), so while it holds a caller
        may skip every multiplication by ``speed`` and division by
        ``speed_div`` without changing a bit.
    online:
        Whether the core is available at all.  An offline core freezes the
        task it was running (resumed on re-online; no migration) and is
        skipped by dispatch.
    speed_epoch / online_epoch:
        Monotonic mutation counters bumped by the choke point;
        ``speed_epoch`` invalidates outstanding completion predictions,
        ``online_epoch`` tells the executor that dispatch eligibility
        changed without any task completing.
    """

    __slots__ = (
        "num_cores",
        "num_nodes",
        "active",
        "rem",
        "ov",
        "mem_frac",
        "gamma",
        "weights",
        "speed",
        "speed_div",
        "base_speed",
        "online",
        "offline",
        "any_offline",
        "unit_speed",
        "speed_epoch",
        "online_epoch",
        "payload",
        "busy_time",
        "work_done",
        "changed",
        "_layers",
        "_all_online",
        "_no_offline",
        "_pred_epoch",
    )

    def __init__(self, num_cores: int, num_nodes: int, base_speed: np.ndarray | None = None):
        if num_cores < 1 or num_nodes < 1:
            raise SimulationError("need at least one core and one node")
        self.num_cores = num_cores
        self.num_nodes = num_nodes
        self.active = np.zeros(num_cores, dtype=bool)
        self.rem = np.zeros(num_cores)
        self.ov = np.zeros(num_cores)
        self.mem_frac = np.zeros(num_cores)
        self.gamma = np.zeros(num_cores)
        self.weights = np.zeros((num_cores, num_nodes))
        if base_speed is None:
            base_speed = np.ones(num_cores)
        base_speed = np.asarray(base_speed, dtype=np.float64)
        if base_speed.shape != (num_cores,) or np.any(base_speed <= 0):
            raise SimulationError("base_speed must be positive with one entry per core")
        self.base_speed = base_speed.copy()
        self.speed = base_speed.copy()
        # all online: speed_div aliases speed (both are rebound, never
        # mutated in place, so the alias is safe and division-exact)
        self.speed_div = self.speed
        self._all_online = np.ones(num_cores, dtype=bool)
        self._no_offline = np.zeros(num_cores, dtype=bool)
        self.online = self._all_online
        self.offline = self._no_offline
        self.any_offline = False
        self.unit_speed = bool((base_speed == 1.0).all())
        self.speed_epoch = 0
        self.online_epoch = 0
        self.payload: list[Any] = [None] * num_cores
        # accumulated per-core busy wall-time and completed base work, used
        # for per-node performance tracing (the PTT's node statistics).
        self.busy_time = np.zeros(num_cores)
        self.work_done = np.zeros(num_cores)
        # Change log for the incremental interference engine: every
        # start/finish records its core here, and so does every
        # online/offline transition (an offline core stops issuing memory
        # traffic, so its node's demand — and hence other cores'
        # slowdowns — changes; see InterferenceModel.node_demand).  Pure
        # speed-factor changes still never alter slowdowns, so they bump
        # speed_epoch but stay out of the log.  The consumer
        # (repro.sim.incremental) drains it.
        self.changed: list[int] = []
        # named multiplicative speed layers composed by the choke point
        self._layers: dict[str, np.ndarray] = {}
        # speed epoch stamped by the last completion_times() call; -1
        # means no prediction is outstanding
        self._pred_epoch = -1

    # ------------------------------------------------------------------
    def start(
        self,
        core: int,
        *,
        body: float,
        overhead: float,
        mem_frac: float,
        gamma: float,
        weights: np.ndarray,
        payload: Any,
    ) -> None:
        """Begin executing a task on an idle ``core``.

        The executor's per-task path (``repro.runtime.executor``'s
        ``_Encounter``) makes the same row writes and change-log entry in
        place, and :meth:`finish`'s too; a new per-core field must be set
        and cleared there as well.
        """
        self._check_core(core)
        if self.active[core]:
            raise SimulationError(f"core {core} is already running a task")
        if body < 0 or overhead < 0 or body + overhead <= 0:
            raise SimulationError(f"task must have positive cost (body={body}, overhead={overhead})")
        if not (0.0 <= mem_frac <= 1.0):
            raise SimulationError(f"mem_frac must lie in [0, 1], got {mem_frac}")
        if gamma < 0:
            raise SimulationError(f"gamma must be non-negative, got {gamma}")
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.num_nodes,):
            raise SimulationError(f"weights must have shape ({self.num_nodes},), got {w.shape}")
        self.active[core] = True
        self.rem[core] = body
        self.ov[core] = overhead
        self.mem_frac[core] = mem_frac
        self.gamma[core] = gamma
        self.weights[core] = w
        self.payload[core] = payload
        self.changed.append(core)

    def finish(self, core: int) -> Any:
        """Retire the completed task on ``core``; returns its payload."""
        self._check_core(core)
        if not self.active[core]:
            raise SimulationError(f"core {core} is not running a task")
        payload = self.payload[core]
        self.active[core] = False
        self.rem[core] = 0.0
        self.ov[core] = 0.0
        self.mem_frac[core] = 0.0
        self.gamma[core] = 0.0
        self.weights[core] = 0.0
        self.payload[core] = None
        self.changed.append(core)
        return payload

    # ------------------------------------------------------------------
    # the speed-mutation choke point
    # ------------------------------------------------------------------
    def set_speed_layer(self, name: str, factors: np.ndarray) -> None:
        """Set one named multiplicative speed layer (> 0 per core).

        Layers compose in sorted-name order onto ``base_speed``; setting a
        layer to all-ones keeps it (the composition of ``1.0`` factors is
        exact), :meth:`clear_speed_layer` removes it.  Every call bumps
        ``speed_epoch``: outstanding completion predictions are stale.
        """
        f = np.asarray(factors, dtype=np.float64)
        if f.shape != (self.num_cores,) or np.any(f <= 0) or not np.all(np.isfinite(f)):
            raise SimulationError(
                f"speed layer {name!r} factors must be positive and finite, one per core"
            )
        self._layers[name] = f.copy()
        self._recompute_speed()

    def clear_speed_layer(self, name: str) -> None:
        """Remove a named speed layer (no-op if absent)."""
        if self._layers.pop(name, None) is not None:
            self._recompute_speed()

    def set_noise(self, factors: np.ndarray) -> None:
        """Apply per-core noise factors on top of base speeds (> 0).

        Kept as the noise process's entry point; now a thin wrapper over
        the ``"noise"`` layer of the choke point.
        """
        self.set_speed_layer("noise", factors)

    def set_online(self, online: np.ndarray) -> None:
        """Set the per-core online mask through the choke point.

        A core going offline freezes mid-task (its remaining work resumes
        when the core returns; no migration) and stops contributing memory
        demand, so every flipped core lands in the change log: the
        incremental engine must mark the affected slowdown rows dirty.
        Bumps ``online_epoch`` (and ``speed_epoch``) only when the mask
        actually changes.
        """
        o = np.asarray(online, dtype=bool)
        if o.shape != (self.num_cores,):
            raise SimulationError("online mask must have one entry per core")
        flipped = np.flatnonzero(o != self.online)
        if flipped.size == 0:
            return
        self.online = self._all_online if o.all() else o.copy()
        self.online_epoch += 1
        self.changed.extend(int(c) for c in flipped)
        self._recompute_speed()

    def _recompute_speed(self) -> None:
        """Recompose ``speed``/``speed_div`` from layers and the online mask,
        and record whether every core is online at exactly ``1.0``
        (``unit_speed``).

        With no layers and everyone online this reproduces the pre-layer
        expressions bitwise (``base * f`` for a single layer is exactly the
        old ``set_noise`` result), so runs without asymmetry keep their
        bytes.
        """
        f: np.ndarray | None = None
        for name in sorted(self._layers):
            layer = self._layers[name]
            f = layer if f is None else f * layer
        speed = self.base_speed.copy() if f is None else self.base_speed * f
        if self.online is self._all_online or self.online.all():
            self.any_offline = False
            self.unit_speed = bool((speed == 1.0).all())
            self.offline = self._no_offline
            self.speed = speed
            self.speed_div = speed
        else:
            self.any_offline = True
            self.unit_speed = False
            self.offline = ~self.online
            self.speed = np.where(self.online, speed, 0.0)
            self.speed_div = np.where(self.online, speed, 1.0)
        self.speed_epoch += 1

    # ------------------------------------------------------------------
    def any_active(self) -> bool:
        return bool(self.active.any())

    def completion_times(self, slowdown: np.ndarray) -> np.ndarray:
        """Wall time until each active core completes, ``inf`` if idle.

        ``slowdown`` is the per-core body slowdown from the interference
        model (>= 1 for active cores; ignored for idle ones).  An offline
        active core never completes on its own: ``inf``.

        The returned prediction is valid only until the next speed
        mutation; :meth:`advance` enforces that (the stale-prediction
        guard).
        """
        if slowdown.shape != (self.num_cores,):
            raise SimulationError("slowdown must have one entry per core")
        t = np.full(self.num_cores, math.inf)
        a = self.active
        t[a] = (self.ov[a] + self.rem[a] * slowdown[a]) / self.speed_div[a]
        if self.any_offline:
            t[a & self.offline] = math.inf
        self._pred_epoch = self.speed_epoch
        return t

    def advance(self, dt: float, slowdown: np.ndarray) -> list[int]:
        """Advance every active core by wall time ``dt``.

        Overhead burns first at core speed; the remainder of the step
        progresses the body at ``speed / slowdown``.  Offline cores freeze:
        they burn nothing and progress nothing (busy time still accrues —
        the occupied core is unavailable, which is exactly what the PTT's
        node statistics should see).  Returns the cores whose task
        completed within the step (caller must ``finish`` them).

        Raises when completion predictions derived before a speed mutation
        survive into this step: advancing by a ``dt`` computed from the
        pre-change speeds would fire completions early or late, the latent
        discrete-event bug the choke point exists to catch.  Callers must
        re-derive (:meth:`completion_times`) after every mutation.
        """
        if self._pred_epoch not in (-1, self.speed_epoch):
            raise SimulationError(
                "stale completion predictions: core speeds changed (epoch "
                f"{self._pred_epoch} -> {self.speed_epoch}) after "
                "completion_times(); re-derive predictions before advancing"
            )
        if dt < 0 or not math.isfinite(dt):
            raise SimulationError(f"cannot advance by {dt}")
        if dt == 0.0:
            return []
        a = self.active
        if not a.any():
            return []
        speed = self.speed[a]
        ov = self.ov[a]
        ov_wall = ov / self.speed_div[a]
        if self.any_offline:
            # offline lanes: burn the whole step as (frozen) overhead wall
            # time so neither overhead nor body progresses
            ov_wall[self.offline[a]] = math.inf
        burn_wall = np.minimum(ov_wall, dt)
        self.ov[a] = ov - burn_wall * speed
        body_wall = dt - burn_wall
        progressed = body_wall * speed / slowdown[a]
        before = self.rem[a]
        rem = np.maximum(before - progressed, 0.0)
        self.rem[a] = rem
        self.busy_time[a] += dt
        self.work_done[a] += before - rem
        done_local = (rem <= EPS) & (self.ov[a] <= EPS)
        cores = np.flatnonzero(a)
        return [int(c) for c in cores[done_local]]

    def _check_core(self, core: int) -> None:
        if not (0 <= core < self.num_cores):
            raise SimulationError(f"unknown core {core}")
