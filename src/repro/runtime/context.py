"""Run context: the simulated machine bundle one application run executes on.

Everything stateful about a run lives here — the event spine, per-core
execution state, the memory map, tracing, and named RNG substreams — so a
fresh context gives a fully independent, reproducible run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.counters.metrics import CounterBoard
from repro.interference.model import InterferenceModel
from repro.interference.noise import NoiseParams, NoiseProcess
from repro.interference.timeline import AsymmetrySpec, AsymmetryTimeline
from repro.memory.allocator import MemoryMap
from repro.memory.bandwidth import BandwidthModel
from repro.memory.cache import CacheModel
from repro.memory.pages import DEFAULT_PAGE_BYTES
from repro.runtime.overhead import OverheadParams
from repro.sim.engine import Simulator
from repro.sim.incremental import IncrementalInterference
from repro.sim.progress import CoreStates
from repro.sim.rng import stream
from repro.sim.trace import Trace
from repro.topology.distances import DistanceMatrix
from repro.topology.machine import MachineTopology
from repro.topology.presets import default_distances

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """All per-run state plus the static machine description."""

    topology: MachineTopology
    distances: DistanceMatrix
    bandwidth: BandwidthModel
    cache: CacheModel
    interference: InterferenceModel
    mem: MemoryMap
    sim: Simulator
    states: CoreStates
    trace: Trace
    counters: CounterBoard
    params: OverheadParams
    noise: NoiseProcess
    incremental: IncrementalInterference
    seed: int
    asym: AsymmetryTimeline | None = None
    _rngs: dict[tuple[str, ...], np.random.Generator] = field(default_factory=dict)

    @staticmethod
    def create(
        topology: MachineTopology,
        *,
        seed: int = 0,
        distances: DistanceMatrix | None = None,
        bandwidth: BandwidthModel | None = None,
        params: OverheadParams | None = None,
        noise_params: NoiseParams | None = None,
        asym_params: AsymmetrySpec | None = None,
        asym_seed: int | None = None,
        trace: bool = False,
        counters: bool = True,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> "RunContext":
        """Build a fresh run context for ``topology``.

        Distances, bandwidth and overhead parameters default to the
        Zen 4-calibrated models; noise and the asymmetry timeline default
        to disabled (``asym_seed`` lets experiments vary the timeline
        independently of the run seed; it defaults to ``seed``).
        """
        distances = distances or default_distances(topology)
        bandwidth = bandwidth or BandwidthModel.from_topology(topology)
        cache = CacheModel.from_topology(topology)
        interference = InterferenceModel(topology, distances, bandwidth)
        sim = Simulator()
        base_speed = np.array([c.base_speed for c in topology.cores])
        states = CoreStates(topology.num_cores, topology.num_nodes, base_speed)
        ctx = RunContext(
            topology=topology,
            distances=distances,
            bandwidth=bandwidth,
            cache=cache,
            interference=interference,
            mem=MemoryMap(topology.num_nodes, page_bytes=page_bytes),
            sim=sim,
            states=states,
            trace=Trace(enabled=trace),
            counters=CounterBoard(enabled=counters),
            params=params or OverheadParams(),
            noise=NoiseProcess(
                sim, states, noise_params or NoiseParams(), stream(seed, "noise")
            ),
            incremental=IncrementalInterference(interference, states),
            seed=seed,
            asym=AsymmetryTimeline(
                sim,
                states,
                asym_params or AsymmetrySpec(),
                stream(seed if asym_seed is None else asym_seed, "asym"),
                interference.node_of_core,
            ),
        )
        ctx.noise.start()
        assert ctx.asym is not None
        ctx.asym.start()
        return ctx

    def rng(self, *names: str) -> np.random.Generator:
        """Memoised named RNG substream for this run's seed."""
        key = tuple(names)
        gen = self._rngs.get(key)
        if gen is None:
            gen = stream(self.seed, *names)
            self._rngs[key] = gen
        return gen

    @property
    def max_threads(self) -> int:
        return self.topology.num_cores

    def advance_serial(self, duration: float) -> None:
        """Advance the clock through a serial (no-task) phase.

        Steps through any pending timed events (noise transitions) so their
        state changes land at the right simulated times.
        """
        end = self.sim.now + duration
        while True:
            nxt = self.sim.events.next_time()
            if nxt >= end:
                break
            self.sim.clock.advance_to(nxt)
            self.sim.run_due_events()
        self.sim.clock.advance_to(end)
        self.sim.run_due_events()
