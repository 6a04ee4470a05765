"""The runtime facade: run a whole application under one scheduler.

:class:`OpenMPRuntime` is the library's main entry point.  It owns a fresh
:class:`RunContext` (simulated machine state) per run, drives the
application's timestep loop, hands every taskloop encounter to the
scheduler for planning and to the executor for simulation, and feeds
measurements back to the scheduler.

Applications follow a small protocol (see
:class:`repro.workloads.base.Application`):

* ``name`` — identifier;
* ``timesteps`` — number of outer iterations;
* ``setup(ctx)`` — allocate data regions into ``ctx.mem``;
* ``encounters(t, ctx)`` — yield :class:`TaskloopWork` and
  :class:`SerialPhase` items for timestep ``t`` in program order.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.errors import RuntimeModelError
from repro.interference.noise import NoiseParams
from repro.interference.timeline import AsymmetrySpec
from repro.memory.bandwidth import BandwidthModel
from repro.memory.pages import DEFAULT_PAGE_BYTES
from repro.runtime.context import RunContext
from repro.runtime.executor import TaskloopExecutor
from repro.runtime.overhead import OverheadParams
from repro.runtime.results import AppRunResult
from repro.runtime.schedulers.base import Scheduler, create_scheduler
from repro.runtime.task import SerialPhase, TaskloopWork
from repro.topology.distances import DistanceMatrix
from repro.topology.machine import MachineTopology

__all__ = ["OpenMPRuntime", "ApplicationProtocol"]


class ApplicationProtocol(Protocol):
    """Structural type every runnable application satisfies."""

    name: str
    timesteps: int

    def setup(self, ctx: RunContext) -> None: ...

    def encounters(self, t: int, ctx: RunContext) -> Iterable[TaskloopWork | SerialPhase]: ...


class OpenMPRuntime:
    """Simulated OpenMP runtime bound to a machine and a scheduler."""

    #: Executor every taskloop encounter runs on.
    executor_type: type[TaskloopExecutor] = TaskloopExecutor

    def __init__(
        self,
        topology: MachineTopology,
        scheduler: Scheduler | str = "baseline",
        *,
        seed: int = 0,
        distances: DistanceMatrix | None = None,
        bandwidth: BandwidthModel | None = None,
        overhead: OverheadParams | None = None,
        noise: NoiseParams | None = None,
        asym: AsymmetrySpec | None = None,
        asym_seed: int | None = None,
        trace: bool = False,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        self.topology = topology
        self.scheduler = (
            scheduler if isinstance(scheduler, Scheduler) else create_scheduler(scheduler)
        )
        self.seed = seed
        self._distances = distances
        self._bandwidth = bandwidth
        self._overhead = overhead
        self._noise = noise
        self._asym = asym
        self._asym_seed = asym_seed
        self._trace = trace
        self._page_bytes = page_bytes
        self.last_ctx: RunContext | None = None

    # ------------------------------------------------------------------
    def create_context(self, seed: int | None = None) -> RunContext:
        """A fresh simulated-machine state for one run."""
        return RunContext.create(
            self.topology,
            seed=self.seed if seed is None else seed,
            distances=self._distances,
            bandwidth=self._bandwidth,
            params=self._overhead,
            noise_params=self._noise,
            asym_params=self._asym,
            asym_seed=self._asym_seed,
            trace=self._trace,
            page_bytes=self._page_bytes,
        )

    def run_application(
        self,
        app: ApplicationProtocol,
        *,
        seed: int | None = None,
        timesteps: int | None = None,
    ) -> AppRunResult:
        """Run ``app`` start to finish; returns per-run measurements.

        The scheduler's learned state is reset first, so repeated calls are
        independent runs (matching the paper's 30-repetition methodology).
        """
        ctx = self.create_context(seed)
        self.last_ctx = ctx
        self.scheduler.reset()
        app.setup(ctx)
        executor = self.executor_type(ctx)
        result = AppRunResult(
            app_name=app.name,
            scheduler=self.scheduler.name,
            seed=ctx.seed,
            total_time=0.0,
        )
        steps = app.timesteps if timesteps is None else timesteps
        if steps < 1:
            raise RuntimeModelError(f"timesteps must be >= 1, got {steps}")
        t_begin = ctx.sim.now
        for t in range(steps):
            for item in app.encounters(t, ctx):
                if isinstance(item, SerialPhase):
                    ctx.advance_serial(item.seconds)
                    continue
                if not isinstance(item, TaskloopWork):
                    raise RuntimeModelError(
                        f"application yielded unexpected item {type(item).__name__}"
                    )
                plan = self.scheduler.plan(item, ctx)
                loop_result = executor.run(item, plan)
                self.scheduler.record(item, plan, loop_result)
                result.taskloops.append(loop_result)
        result.total_time = ctx.sim.now - t_begin
        return result
