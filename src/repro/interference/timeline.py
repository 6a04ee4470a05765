"""Seeded dynamic-asymmetry timelines: the machine misbehaving on purpose.

The static interference model plus :class:`NoiseProcess` covers transient
co-located slowdowns, but real machines also shift *regimes* under the
scheduler: DVFS drops a socket to a lower P-state for seconds, thermal
throttling ramps a package down and back in steps, a co-tenant lands on a
few cores, an operator (or the kernel) takes a core offline entirely.
:class:`AsymmetryTimeline` drives all four as self-scheduling simulation
events drawn from one injected generator (``stream(seed, "asym")`` at the
run-context layer), so a run's asymmetry is part of its seed and replays
byte-identically.

Every mutation flows through the :class:`~repro.sim.progress.CoreStates`
choke point — speed factors through ``set_speed_layer("asym", ...)``
(composing with the noise layer), availability through ``set_online`` —
so the reference and incremental engines observe identical state and the
stale-prediction guard covers every event.

Mechanisms
----------
DVFS step
    At exponential intervals one random node's cores drop to a uniform
    factor in ``[dvfs_low, dvfs_high]`` for an exponential duration, then
    revert.  A node holds one P-state at a time: onsets landing on a node
    already stepped down are skipped (the next onset is still scheduled),
    so long-duration specs model persistent per-node steps rather than
    unboundedly stacking slowdowns.
Thermal-throttle ramp
    One episode at a time, machine-wide arbitration: a random node ramps
    down to ``throttle_floor`` in ``throttle_steps`` equal steps, holds,
    and ramps back up.  Step values are assigned absolutely (never
    accumulated), so the ramp ends at exactly ``1.0`` — no float drift
    across episodes.
Transient co-tenant
    A random core subset is slowed by ``cotenant_factor`` for an
    exponential duration — like noise, but configured on the asymmetry
    axis so experiments can separate the two.
Core offline/online
    A random currently-online core goes offline for an exponential
    duration, freezing any task it was running (resumed in place on
    return; no migration).  At most ``max_offline_fraction`` of cores are
    offline concurrently, and every offline event schedules its own
    online event, so the machine always recovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.progress import CoreStates

__all__ = ["AsymmetrySpec", "AsymmetryTimeline", "ASYMMETRY_PRESETS"]


@dataclass(frozen=True)
class AsymmetrySpec:
    """Configuration of the asymmetry timeline; all mechanisms off by default.

    Intervals are mean seconds between onsets (exponential); ``None``
    disables that mechanism.  Durations are mean seconds (exponential)
    except the throttle ramp, whose shape is deterministic per episode.
    """

    dvfs_interval: float | None = None
    dvfs_low: float = 0.4
    dvfs_high: float = 0.7
    dvfs_duration: float = 0.5
    #: cap on concurrently stepped-down nodes (None = no cap); with a
    #: long ``dvfs_duration`` and ``dvfs_max_nodes=1`` the timeline is a
    #: persistent single-node DVFS *step*, the canonical re-exploration
    #: experiment
    dvfs_max_nodes: int | None = None

    throttle_interval: float | None = None
    throttle_floor: float = 0.5
    throttle_steps: int = 4
    throttle_step_time: float = 0.02
    throttle_hold: float = 0.3

    cotenant_interval: float | None = None
    cotenant_factor: float = 0.6
    cotenant_fraction: float = 0.25
    cotenant_duration: float = 0.2

    offline_interval: float | None = None
    offline_duration: float = 0.4
    max_offline_fraction: float = 0.25

    def __post_init__(self) -> None:
        for name in ("dvfs_interval", "throttle_interval",
                     "cotenant_interval", "offline_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SimulationError(f"{name} must be positive or None")
        if not (0.0 < self.dvfs_low <= self.dvfs_high <= 1.0):
            raise SimulationError("need 0 < dvfs_low <= dvfs_high <= 1")
        if self.dvfs_duration <= 0:
            raise SimulationError("dvfs_duration must be positive")
        if self.dvfs_max_nodes is not None and self.dvfs_max_nodes < 1:
            raise SimulationError("dvfs_max_nodes must be >= 1 or None")
        if not (0.0 < self.throttle_floor < 1.0):
            raise SimulationError("throttle_floor must lie in (0, 1)")
        if self.throttle_steps < 1:
            raise SimulationError("throttle_steps must be >= 1")
        if self.throttle_step_time <= 0 or self.throttle_hold < 0:
            raise SimulationError("throttle ramp times must be positive (hold >= 0)")
        if not (0.0 < self.cotenant_factor < 1.0):
            raise SimulationError("cotenant_factor must lie in (0, 1)")
        if not (0.0 < self.cotenant_fraction <= 1.0):
            raise SimulationError("cotenant_fraction must lie in (0, 1]")
        if self.offline_duration <= 0:
            raise SimulationError("offline_duration must be positive")
        if not (0.0 < self.max_offline_fraction < 1.0):
            raise SimulationError("max_offline_fraction must lie in (0, 1)")

    @property
    def enabled(self) -> bool:
        return any(
            getattr(self, name) is not None
            for name in ("dvfs_interval", "throttle_interval",
                         "cotenant_interval", "offline_interval")
        )

    def describe(self) -> str:
        """Canonical ``key=value`` form of the non-default fields.

        Stable across parse spellings, so it is what enters experiment
        cache keys; the all-default spec describes to ``"none"``.
        """
        default = _DEFAULT_SPEC
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != getattr(default, f.name):
                parts.append(f"{f.name}={value:g}" if isinstance(value, float)
                             else f"{f.name}={value}")
        return ",".join(parts) if parts else "none"

    @classmethod
    def parse(cls, text: str) -> "AsymmetrySpec":
        """Parse a spec string: presets, overrides, or both.

        Grammar: ``preset[+preset...][:key=value[,key=value...]]`` or a
        bare ``key=value[,...]`` list.  Presets (:data:`ASYMMETRY_PRESETS`)
        compose left to right; overrides apply last.  ``"none"`` and
        ``""`` give the disabled spec.
        """
        text = text.strip()
        if not text or text == "none":
            return cls()
        head, _, tail = text.partition(":")
        if "=" in head:
            head, tail = "", text
        merged: dict[str, object] = {}
        for preset in filter(None, head.split("+")):
            try:
                base = ASYMMETRY_PRESETS[preset]
            except KeyError:
                known = ", ".join(sorted(ASYMMETRY_PRESETS))
                raise SimulationError(
                    f"unknown asymmetry preset {preset!r} (known: {known})"
                ) from None
            for f in fields(cls):
                value = getattr(base, f.name)
                if value != getattr(_DEFAULT_SPEC, f.name):
                    merged[f.name] = value
        valid = {f.name: f for f in fields(cls)}
        for item in filter(None, tail.split(",")):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or key not in valid:
                raise SimulationError(
                    f"bad asymmetry override {item!r} (expected key=value "
                    f"with a known AsymmetrySpec field)"
                )
            merged[key] = _parse_value(key, raw.strip())
        return replace(cls(), **merged)  # type: ignore[arg-type]


def _parse_value(key: str, raw: str) -> object:
    if raw.lower() == "none":
        return None
    if key in ("throttle_steps", "dvfs_max_nodes"):
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        raise SimulationError(f"bad value {raw!r} for {key}") from None


_DEFAULT_SPEC = AsymmetrySpec()

#: Named starting points for ``--asym-spec``; chosen so a default-noise
#: campaign sees genuine regime shifts (long episodes, deep factors), the
#: setting where PTT re-exploration matters.
ASYMMETRY_PRESETS: dict[str, AsymmetrySpec] = {
    "dvfs": AsymmetrySpec(dvfs_interval=0.2),
    "throttle": AsymmetrySpec(throttle_interval=0.3),
    "cotenant": AsymmetrySpec(cotenant_interval=0.1),
    "offline": AsymmetrySpec(offline_interval=0.25),
    "mix": AsymmetrySpec(dvfs_interval=0.3, cotenant_interval=0.15,
                         offline_interval=0.4),
    "harsh": AsymmetrySpec(dvfs_interval=0.15, dvfs_low=0.3, dvfs_high=0.5,
                           throttle_interval=0.4, cotenant_interval=0.1,
                           offline_interval=0.3, max_offline_fraction=0.4),
}


class AsymmetryTimeline:
    """Self-scheduling asymmetry injector over a run's :class:`CoreStates`.

    All randomness comes from the injected generator, drawn inside event
    callbacks in event-queue order, so a (seed, spec) pair fully
    determines the timeline.
    """

    def __init__(
        self,
        sim: Simulator,
        states: CoreStates,
        spec: AsymmetrySpec,
        rng: np.random.Generator,
        node_of_core: np.ndarray,
    ):
        if node_of_core.shape != (states.num_cores,):
            raise SimulationError("node_of_core must have one entry per core")
        self.sim = sim
        self.states = states
        self.spec = spec
        self.rng = rng
        self.node_of_core = np.asarray(node_of_core)
        self.num_nodes = int(self.node_of_core.max()) + 1 if states.num_cores else 0
        n = states.num_cores
        # per-mechanism factor vectors, composed into one "asym" layer
        self._dvfs = np.ones(n)
        self._throttle = np.ones(n)
        self._cotenant = np.ones(n)
        self._offline_mask = np.zeros(n, dtype=bool)
        self._throttle_active = False
        self._dvfs_node_active = np.zeros(self.num_nodes, dtype=bool)
        self.dvfs_episodes = 0
        self.dvfs_skipped = 0
        self.throttle_episodes = 0
        self.cotenant_episodes = 0
        self.offline_episodes = 0
        self.offline_skipped = 0

    def start(self) -> None:
        """Arm every enabled mechanism (no-op for a disabled spec)."""
        s = self.spec
        if s.dvfs_interval is not None:
            self._schedule(s.dvfs_interval, self._dvfs_onset, "asym-dvfs-onset")
        if s.throttle_interval is not None:
            self._schedule(s.throttle_interval, self._throttle_onset,
                           "asym-throttle-onset")
        if s.cotenant_interval is not None:
            self._schedule(s.cotenant_interval, self._cotenant_onset,
                           "asym-cotenant-onset")
        if s.offline_interval is not None:
            self._schedule(s.offline_interval, self._offline_onset,
                           "asym-offline-onset")

    # ------------------------------------------------------------------
    def _schedule(self, mean: float, action, tag: str) -> None:
        gap = float(self.rng.exponential(mean))
        self.sim.schedule_in(gap, action, tag=tag)

    def _apply_factors(self) -> None:
        combined = self._dvfs * self._throttle * self._cotenant
        self.states.set_speed_layer("asym", combined)

    def _node_cores(self, node: int) -> np.ndarray:
        return np.flatnonzero(self.node_of_core == node)

    # -- DVFS ----------------------------------------------------------
    def _dvfs_onset(self) -> None:
        s = self.spec
        assert s.dvfs_interval is not None
        self._schedule(s.dvfs_interval, self._dvfs_onset, "asym-dvfs-onset")
        if (
            s.dvfs_max_nodes is not None
            and int(self._dvfs_node_active.sum()) >= s.dvfs_max_nodes
        ):
            self.dvfs_skipped += 1
            return
        node = int(self.rng.integers(self.num_nodes))
        if self._dvfs_node_active[node]:
            # the node already sits in a lowered P-state: one step at a
            # time per node, never stacked (stacking would compound the
            # factor without bound under long-duration specs)
            self.dvfs_skipped += 1
            return
        self._dvfs_node_active[node] = True
        factor = float(self.rng.uniform(s.dvfs_low, s.dvfs_high))
        cores = self._node_cores(node)
        self._dvfs[cores] = factor
        self._apply_factors()
        self.dvfs_episodes += 1
        duration = float(self.rng.exponential(s.dvfs_duration))
        self.sim.schedule_in(
            duration,
            lambda n=node, c=cores: self._dvfs_offset(n, c),
            tag="asym-dvfs-offset",
        )

    def _dvfs_offset(self, node: int, cores: np.ndarray) -> None:
        self._dvfs[cores] = 1.0
        self._dvfs_node_active[node] = False
        self._apply_factors()

    # -- thermal throttle ----------------------------------------------
    def _throttle_onset(self) -> None:
        s = self.spec
        assert s.throttle_interval is not None
        self._schedule(s.throttle_interval, self._throttle_onset,
                       "asym-throttle-onset")
        if self._throttle_active:
            return
        self._throttle_active = True
        self.throttle_episodes += 1
        node = int(self.rng.integers(self.num_nodes))
        cores = self._node_cores(node)
        # ramp values, each assigned absolutely: down to the floor in
        # `throttle_steps` equal steps, hold, back up ending at exactly 1.0
        k, floor = s.throttle_steps, s.throttle_floor
        down = [1.0 - (1.0 - floor) * i / k for i in range(1, k + 1)]
        up = [floor + (1.0 - floor) * i / k for i in range(1, k + 1)]
        self._throttle_step(cores, down, up)

    def _throttle_step(
        self, cores: np.ndarray, down: list[float], up: list[float]
    ) -> None:
        s = self.spec
        if down:
            value, rest = down[0], down[1:]
            self._throttle[cores] = value
            self._apply_factors()
            if rest:
                self.sim.schedule_in(
                    s.throttle_step_time,
                    lambda: self._throttle_step(cores, rest, up),
                    tag="asym-throttle-step",
                )
            else:
                self.sim.schedule_in(
                    s.throttle_step_time + s.throttle_hold,
                    lambda: self._throttle_step(cores, [], up),
                    tag="asym-throttle-hold",
                )
            return
        value, rest = up[0], up[1:]
        self._throttle[cores] = value
        self._apply_factors()
        if rest:
            self.sim.schedule_in(
                s.throttle_step_time,
                lambda: self._throttle_step(cores, [], rest),
                tag="asym-throttle-step",
            )
        else:
            self._throttle_active = False

    # -- transient co-tenant -------------------------------------------
    def _cotenant_onset(self) -> None:
        s = self.spec
        assert s.cotenant_interval is not None
        n = self.states.num_cores
        k = max(1, int(round(s.cotenant_fraction * n)))
        cores = self.rng.choice(n, size=k, replace=False)
        self._cotenant[cores] *= s.cotenant_factor
        self._apply_factors()
        self.cotenant_episodes += 1
        duration = float(self.rng.exponential(s.cotenant_duration))
        self.sim.schedule_in(
            duration,
            lambda c=cores: self._cotenant_offset(c),
            tag="asym-cotenant-offset",
        )
        self._schedule(s.cotenant_interval, self._cotenant_onset,
                       "asym-cotenant-onset")

    def _cotenant_offset(self, cores: np.ndarray) -> None:
        self._cotenant[cores] /= self.spec.cotenant_factor
        self._apply_factors()

    # -- core offline/online -------------------------------------------
    def _offline_onset(self) -> None:
        s = self.spec
        assert s.offline_interval is not None
        self._schedule(s.offline_interval, self._offline_onset,
                       "asym-offline-onset")
        n = self.states.num_cores
        cap = max(1, int(math.floor(s.max_offline_fraction * n)))
        if int(self._offline_mask.sum()) >= cap:
            self.offline_skipped += 1
            return
        candidates = np.flatnonzero(~self._offline_mask)
        core = int(self.rng.choice(candidates))
        self._offline_mask[core] = True
        self.states.set_online(~self._offline_mask)
        self.offline_episodes += 1
        duration = float(self.rng.exponential(s.offline_duration))
        self.sim.schedule_in(
            duration,
            lambda c=core: self._offline_end(c),
            tag="asym-online",
        )

    def _offline_end(self, core: int) -> None:
        self._offline_mask[core] = False
        self.states.set_online(~self._offline_mask)

    # ------------------------------------------------------------------
    @property
    def factors(self) -> np.ndarray:
        """Current combined per-core asymmetry factors (1.0 = nominal)."""
        return self._dvfs * self._throttle * self._cotenant
