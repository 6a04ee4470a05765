"""The three benchmark workloads: inputs, set-up, timed window, checks.

Every workload

* builds its :class:`~repro.exp.runner.ExperimentConfig` explicitly and
  leaves the engine and noise at the program's defaults;
* runs on the paper's ``zen4_9354`` machine;
* is driven from this one process, over at most two client connections;
* draws its inputs from the workload seed alone (:func:`campaign_plan`,
  :func:`serve_mixed_jobs`, :func:`fleet_hot_jobs` are pure functions of
  it), so the program only ever sees the generated inputs.

A workload returns a :class:`Outcome`: what was attempted, what finished,
per-job latencies, the output checks and the raw material the traced run
turns into per-layer metrics.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable

import numpy

import tracing

_clock = time.perf_counter

#: Schedulers of the paper's comparison (Figures 2 and 6).
CAMPAIGN_SCHEDULERS = ("baseline", "ilan", "worksharing")
#: Application timesteps of every campaign run (a round takes ~3-4 s).
CAMPAIGN_TIMESTEPS = 2
#: Upper bound on campaign rounds (each round runs every cell once).
CAMPAIGN_MAX_ROUNDS = 64

#: serve-mixed job menu: (benchmark, timesteps, runs per job).  Every
#: paper benchmark and timesteps 1-3 appear, with the runs per job chosen
#: so each job costs about the same (~140 ms of simulation alone on a
#: 2-core host), which keeps the order in which the two tenants' jobs meet
#: from dominating the numbers.
SERVE_MENU = (
    ("matmul", 1, 7), ("matmul", 2, 3), ("matmul", 3, 2),
    ("ft", 1, 2), ("ft", 2, 1), ("cg", 1, 2), ("cg", 2, 1),
    ("lu", 1, 1), ("bt", 1, 1), ("sp", 1, 1), ("lulesh", 1, 1),
    # about twice the cost: the slow tail is a group of its own, so the
    # p90 does not sit in a sparse gap between job sizes
    ("ft", 3, 1), ("cg", 3, 1), ("lu", 2, 1),
)
SERVE_SCHEDULERS = ("ilan", "ilan-adaptive")
SERVE_NODES = (1, 2, 4, 8)

#: fleet-hot job menu: the cheapest benchmark under the cheapest
#: scheduler to warm (work-sharing runs on the whole machine, so every
#: run-cache key repeats), with 50-200 cached runs per job: tens of
#: milliseconds of cache reads, so the first status poll never finds a job
#: already finished.
FLEET_BENCHMARK = "matmul"
FLEET_SCHEDULER = "worksharing"
FLEET_SEEDS = (50, 100, 200)
FLEET_TIMESTEPS = 1

#: a latency window runs past ``--seconds`` until this many jobs were
#: submitted, so its p90 has at least ten samples beyond it
MIN_JOBS = 100

#: status poll period of the tenants' ``ServiceClient.wait``.  The default
#: schedule (20 ms doubling to 500 ms) puts client latency on poll steps,
#: and the host's speed swings then move whole quantiles from one step to
#: the next; a fixed 5 ms poll keeps latency within 5 ms of the server's
#: own completion time (see README.md).
POLL_S = 0.005

#: serving windows are cut by job completion time into sub-windows of
#: this length; throughput is the median of their rates, so a burst of
#: host contention moves one sub-window, not the run's figure
SLICE_S = 2.0

#: period of the host-speed probe during a serving window
PROBE_EVERY_S = 0.2

HOST = "127.0.0.1"


# ----------------------------------------------------------------------
# inputs: pure functions of the workload seed
# ----------------------------------------------------------------------
def _rng(seed: int, *names: str) -> random.Random:
    return random.Random("/".join(("perfbench", *names, str(seed))))


def campaign_plan(seed: int, benchmarks: list[str]) -> list[list[tuple[str, str, int]]]:
    """Rounds of ``(benchmark, scheduler, repetition index)`` cells.

    Each round holds every cell of the paper grid once, in a seeded order;
    each cell draws distinct repetition indices, so no run repeats and the
    cache stays cold.
    """
    rng = _rng(seed, "campaign")
    cells = list(product(benchmarks, CAMPAIGN_SCHEDULERS))
    # a permutation of 0..63 per cell: job_specs builds index+1 specs to
    # reach index, so small indices keep that cost negligible
    indices = {
        cell: rng.sample(range(CAMPAIGN_MAX_ROUNDS), CAMPAIGN_MAX_ROUNDS) for cell in cells
    }
    rounds = []
    for r in range(CAMPAIGN_MAX_ROUNDS):
        order = list(cells)
        rng.shuffle(order)
        rounds.append([(b, s, indices[(b, s)][r]) for b, s in order])
    return rounds


def _cycled(rng: random.Random, values: tuple, count: int) -> list:
    """``count`` draws that visit every value once per block (seeded order)."""
    out: list = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def serve_mixed_jobs(seed: int, tenant: int, count: int) -> list[dict[str, Any]]:
    """One tenant's job sequence.

    Tenant ``i`` runs scheduler ``SERVE_SCHEDULERS[i]`` and cycles through
    seeded permutations of every (menu entry, lease size) combination, so
    a window's mix is fixed and only the order, and thus the pairing of
    concurrent jobs, changes with the seed.
    """
    rng = _rng(seed, "serve-mixed", f"tenant{tenant}")
    combos = tuple(product(SERVE_MENU, SERVE_NODES))
    scheduler = SERVE_SCHEDULERS[tenant % len(SERVE_SCHEDULERS)]
    return [
        {"benchmark": b, "scheduler": scheduler, "seeds": runs, "timesteps": t, "nodes": n}
        for (b, t, runs), n in _cycled(rng, combos, count)
    ]


def fleet_hot_jobs(seed: int, tenant: int, count: int) -> list[dict[str, Any]]:
    """One tenant's job sequence over the cached fleet-hot menu."""
    rng = _rng(seed, "fleet-hot", f"tenant{tenant}")
    return [
        {"benchmark": FLEET_BENCHMARK, "scheduler": FLEET_SCHEDULER, "seeds": runs,
         "timesteps": FLEET_TIMESTEPS}
        for runs in _cycled(rng, FLEET_SEEDS, count)
    ]


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One finished (or refused) job as the client saw it."""

    tenant: str
    spec: dict[str, Any]
    submitted: float
    done: float
    record: dict[str, Any] | None  # None: refused at admission

    @property
    def latency(self) -> float:
        return self.done - self.submitted


@dataclass
class Outcome:
    """What one timed window did, and whether its outputs were right."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    runs: int = 0  # simulated or cached runs whose results were delivered
    window_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: (seconds, runs, jobs) of each sub-window; rates are their medians
    slices: list[tuple[float, int, int]] = field(default_factory=list)
    #: :func:`host_probe` times taken during the window
    probes: list[float] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    #: workload-specific counters for the per-layer metrics
    extra: dict[str, float] = field(default_factory=dict)
    #: raw samples kept for the result file only
    samples: dict[str, Any] = field(default_factory=dict)


def host_probe() -> float:
    """CPU seconds this thread spends on a fixed mix of interpreter and
    NumPy work: the shared host's speed at this moment.

    The thread's CPU clock leaves out time spent waiting for the
    interpreter lock (the serving workloads run worker threads) but not a
    slower core — a busy sibling hyperthread or a lower clock.
    """
    t0 = time.thread_time()
    table: dict[int, float] = {}
    total = 0
    for i in range(6000):
        key = (i * 2654435761) % 200_003
        # scattered reads of a few MiB, like the simulator's object graph
        total += _PROBE_HEAP[key % len(_PROBE_HEAP)]
        table[key & 4095] = table.get(key & 4095, 0.0) + i / (1 + key)
    vec = numpy.arange(16384, dtype=float)
    for _ in range(30):
        vec = numpy.sqrt(vec * 1.0001 + 1.0)
    return time.thread_time() - t0


_PROBE_HEAP = list(range(200_000))


def import_probe(root: Path, modules: list[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules`` (a user's
    start-up cost; this process has long imported them)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    code = "import " + ", ".join(modules)
    t0 = _clock()
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
    return _clock() - t0


def _config(**kwargs: Any):
    from repro.exp.runner import ExperimentConfig

    return ExperimentConfig(jobs=1, **kwargs)


def _summary(runs: list) -> dict[str, Any]:
    """The service's per-job result summary, recomputed from runs."""
    times = [r.total_time for r in runs]
    return {
        "runs": len(runs),
        "total_time_mean_s": sum(times) / len(times),
        "total_time_min_s": min(times),
        "total_time_max_s": max(times),
        "weighted_avg_threads": sum(r.weighted_avg_threads for r in runs) / len(runs),
    }


def _conserved(jobs: dict[str, Any]) -> bool:
    return jobs["submitted"] == (
        jobs["completed"] + jobs["failed"] + jobs["active"] + jobs["queued"]
        + jobs.get("evicted", 0)
    )


def _lease_free(snapshot: dict[str, Any]) -> bool:
    nodes = snapshot["nodes"]
    return all(owner is None for owner in nodes["leases"].values()) and not nodes[
        "waiting_for_lease"
    ]


async def closed_loop(
    clients: list, tenants: list[str], jobs: list[list[dict[str, Any]]], seconds: float,
    out: Outcome,
) -> None:
    """Each tenant submits, waits for the terminal state, and repeats until
    the window closes (and at least :data:`MIN_JOBS` were submitted); the
    window ends when the last job finishes."""
    from repro.serve.protocol import AdmissionRejected, JobRequest

    deadline = _clock() + seconds

    async def tenant_loop(client, tenant: str, sequence: list[dict[str, Any]]) -> None:
        for spec in sequence:
            if _clock() >= deadline and out.attempted >= MIN_JOBS:
                return
            request = JobRequest(tenant=tenant, **spec)
            out.attempted += 1
            t0 = _clock()
            try:
                job_id = await client.submit(request)
            except AdmissionRejected:
                out.rejected += 1
                out.jobs.append(Job(tenant, spec, t0, _clock(), None))
                continue
            token = tracing.set_request(job_id)
            record = await client.wait(job_id, poll_interval=POLL_S, max_poll_interval=POLL_S)
            tracing.reset_request(token)
            out.jobs.append(Job(tenant, spec, t0, _clock(), record))
        raise RuntimeError("job sequence exhausted before the window closed")

    async def probe_loop() -> None:
        while True:
            out.probes.append(host_probe())
            await asyncio.sleep(PROBE_EVERY_S)

    t_start = _clock()
    prober = asyncio.create_task(probe_loop())
    try:
        await asyncio.gather(
            *(tenant_loop(c, t, s) for c, t, s in zip(clients, tenants, jobs))
        )
    finally:
        prober.cancel()
        await asyncio.gather(prober, return_exceptions=True)
    out.window_s = _clock() - t_start
    bins = [[0, 0] for _ in range(int(out.window_s / SLICE_S))]
    for job in out.jobs:
        if job.record is None:
            continue
        if job.record["state"] == "completed":
            out.completed += 1
            out.runs += job.record["result"]["runs"]
            out.latencies.append(job.latency)
            k = int((job.done - t_start) / SLICE_S)
            if k < len(bins):  # the last, partial sub-window is dropped
                bins[k][0] += job.record["result"]["runs"]
                bins[k][1] += 1
        else:
            out.failed += 1
    out.slices = [(SLICE_S, runs, jobs) for runs, jobs in bins]


class Workload:
    """Set-up / window / check protocol the harness drives."""

    name = ""
    #: modules a user's process imports to run this workload
    modules: list[str] = []

    def __init__(self, root: Path, scratch: Path, seed: int):
        self.root = root
        self.scratch = scratch
        self.seed = seed

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory inside the checkout's scratch area."""
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.scratch))

    def run(self, seconds: float, setups: int, on_window: Callable[[bool], None],
            check: bool) -> tuple[list[float], Outcome]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class Campaign(Workload):
    """A paper-shaped campaign through ``Runner.run_specs``, cold cache."""

    name = "campaign"
    modules = ["repro.exp.runner", "repro.exp.cache", "repro.topology.presets"]

    def _setup(self):
        from repro.exp.cache import ResultCache
        from repro.exp.runner import Runner
        from repro.topology.presets import zen4_9354

        cache_dir = self.fresh_dir("campaign-cache")
        config = _config(seeds=1, timesteps=CAMPAIGN_TIMESTEPS)
        runner = Runner(config, topology=zen4_9354(), cache=ResultCache(cache_dir))
        runner.topology_fp  # noqa: B018 -- the machine fingerprint is set-up work
        return runner, cache_dir

    def run(self, seconds, setups, on_window, check):
        from repro.exp.cache import ResultCache, run_to_json
        from repro.exp.runner import Runner
        from repro.workloads.registry import PAPER_ORDER

        setup_times = []
        state = None
        for i in range(setups):
            probe = import_probe(self.root, self.modules)
            t1 = _clock()
            state = self._setup()
            setup_times.append(probe + (_clock() - t1))
            if i < setups - 1:
                shutil.rmtree(state[1])
        runner, cache_dir = state
        rounds = campaign_plan(self.seed, list(PAPER_ORDER))

        # the first round warms the interpreter and the machine's lazy
        # state; it is not timed and its runs are not checked
        for benchmark, scheduler, index in rounds[0]:
            runner.run_specs(runner.job_specs(benchmark, scheduler, seeds=index + 1)[index:])

        out = Outcome()
        specs, results, round_times = [], [], []
        on_window(True)
        t_start = _clock()
        for r, cells in enumerate(rounds[1:], start=1):
            round_s = 0.0
            for benchmark, scheduler, index in cells:
                out.probes.append(host_probe())  # between cells, not timed
                t_cell = _clock()
                spec = runner.job_specs(benchmark, scheduler, seeds=index + 1)[index]
                token = tracing.set_request(f"r{r}:{benchmark}/{scheduler}#{index}")
                t0 = _clock()
                (result,) = runner.run_specs([spec])
                out.latencies.append(_clock() - t0)
                tracing.reset_request(token)
                specs.append(spec)
                results.append(result)
                round_s += _clock() - t_cell
            round_times.append(round_s)
            out.slices.append((round_s, len(cells), len(cells)))
            if _clock() - t_start >= seconds:
                break
        out.window_s = _clock() - t_start
        on_window(False)
        out.attempted = out.completed = out.runs = len(results)
        out.extra["rounds"] = len(round_times)
        out.samples["round_s"] = round_times

        if check:
            replay = Runner(runner.config, topology=runner.topology,
                            cache=ResultCache(cache_dir))
            warm = replay.run_specs(specs)
            out.checks["warm_replay_byte_identical"] = all(
                run_to_json(a) == run_to_json(b) for a, b in zip(results, warm)
            ) and len(warm) == len(results)
            out.checks["warm_replay_all_hits"] = (
                replay.cache.stats.misses == 0
                and replay.cache.stats.hits == len(specs)
            )
            out.checks["cold_window_no_hits"] = runner.cache.stats.hits == 0
        return setup_times, out


# ----------------------------------------------------------------------
# the serving workloads
# ----------------------------------------------------------------------
class Serving(Workload):
    """Shared shape of the two closed-loop serving workloads."""

    async def _setup(self):
        """Start the service; returns ``(server, clients, state)``."""
        raise NotImplementedError

    async def _set_up(self, setups: int):
        times = []
        for i in range(setups):
            probe = import_probe(self.root, self.modules)
            t1 = _clock()
            server, clients, state = await self._setup()
            times.append(probe + (_clock() - t1))
            if i < setups - 1:
                await self._teardown(server, clients)
        return times, server, clients, state

    @staticmethod
    async def _teardown(server, clients) -> dict[str, Any]:
        for client in clients:
            await client.close()
        return await server.drain()

    @staticmethod
    def _drained_checks(out: Outcome, snapshots: list[dict[str, Any]]) -> None:
        """Every service conserves its jobs and holds no lease after drain."""
        out.checks["jobs_conserved"] = all(_conserved(s["jobs"]) for s in snapshots)
        out.checks["no_lease_leaked"] = all(_lease_free(s) for s in snapshots)


class ServeMixed(Serving):
    """Closed loop against one ``SchedulingService`` over TCP, no cache."""

    name = "serve-mixed"
    modules = ["repro.serve.server", "repro.serve.client", "repro.topology.presets"]

    async def _setup(self):
        from repro.serve.client import ServiceClient
        from repro.serve.server import SchedulingService
        from repro.topology.presets import zen4_9354

        service = SchedulingService(zen4_9354(), config=_config(seeds=1))
        tracing.tag_service(service, "svc")
        host, port = await service.start(HOST, 0)
        clients = [await ServiceClient.connect(host, port) for _ in range(2)]
        return service, clients, None

    async def _run(self, seconds, setups, on_window):
        setup_times, service, clients, _ = await self._set_up(setups)
        tenants = ["tenant-0", "tenant-1"]
        jobs = [serve_mixed_jobs(self.seed, i, 4096) for i in range(2)]

        out = Outcome()
        before = service.metrics_snapshot()["tenancy"]
        on_window(True)
        await closed_loop(clients, tenants, jobs, seconds, out)
        on_window(False)
        after = service.metrics_snapshot()["tenancy"]
        for key in ("warm_starts", "cold_bootstraps"):
            out.extra[key] = after[key] - before[key]
        self._drained_checks(out, [await self._teardown(service, clients)])
        return setup_times, out, service

    @staticmethod
    def _replay(service, jobs: list[Job]) -> bool:
        """Every distinct served spec, rebuilt from its lease and run
        through a plain runner, gives the summary the service returned.

        Runs after the event loop and its threads are gone, on two worker
        processes (the runner's own process pool)."""
        from repro.exp.runner import LEASE_SCHEDULERS, Runner

        runner = Runner(service.config, topology=service.topology, jobs=2)
        served = [j.record for j in jobs if j.record and j.record["state"] == "completed"]
        keys, wanted = [], {}
        for record in served:
            req = record["request"]
            bits = (
                sum(1 << node for node in record["lease_nodes"])
                if req["scheduler"] in LEASE_SCHEDULERS else None
            )
            key = (req["benchmark"], req["scheduler"], req["seeds"], req["timesteps"], bits)
            keys.append(key)
            if key not in wanted:
                wanted[key] = runner.job_specs(
                    req["benchmark"], req["scheduler"], seeds=req["seeds"],
                    timesteps=req["timesteps"], lease_bits=bits,
                )
        results = iter(runner.run_specs([spec for specs in wanted.values() for spec in specs]))
        expected = {
            key: _summary([next(results) for _ in specs]) for key, specs in wanted.items()
        }
        return bool(served) and all(
            record["result"] == expected[key] for record, key in zip(served, keys)
        )

    def run(self, seconds, setups, on_window, check):
        setup_times, out, service = asyncio.run(self._run(seconds, setups, on_window))
        if check:
            out.checks["served_results_reproduce"] = self._replay(service, out.jobs)
        return setup_times, out


class FleetHot(Serving):
    """Closed loop against a 2-shard ``FederationService``, warm cache."""

    name = "fleet-hot"
    modules = [
        "repro.serve.federation.service", "repro.serve.federation.router",
        "repro.serve.federation.shard", "repro.serve.client", "repro.topology.presets",
    ]

    async def _setup(self):
        from repro.serve.client import ServiceClient
        from repro.serve.federation.router import FederationRouter
        from repro.serve.federation.service import FederationService
        from repro.serve.federation.shard import build_shards
        from repro.serve.protocol import JobRequest
        from repro.topology.presets import zen4_9354

        cache_dir = self.fresh_dir("fleet-cache")
        shards = build_shards(2, zen4_9354, config=_config(seeds=1, cache_dir=str(cache_dir)))
        for shard in shards:
            tracing.tag_service(shard.service, shard.instance_id)
        fleet = FederationService(FederationRouter(shards, seed=0))
        host, port = await fleet.start(HOST, 0)
        clients = [await ServiceClient.connect(host, port) for _ in range(2)]
        # warm the run cache through the fleet itself: job specs use run
        # indices 0..n-1, so the largest job writes every key the window reads
        nodes = shards[0].service.topology.num_nodes
        warmup = JobRequest(
            benchmark=FLEET_BENCHMARK, scheduler=FLEET_SCHEDULER, seeds=max(FLEET_SEEDS),
            timesteps=FLEET_TIMESTEPS, nodes=nodes, tenant="warmup",
        )
        record = await clients[0].wait(await clients[0].submit(warmup))
        if record["state"] != "completed":
            raise RuntimeError(f"fleet warm-up job failed: {record['error']}")
        return fleet, clients, (nodes, cache_dir)

    @staticmethod
    def _tenants(router) -> list[str]:
        """Two tenant names the ring homes on different shards (a fixed
        choice, independent of the workload seed)."""
        chosen: dict[str, str] = {}
        for i in range(64):
            name = f"tenant-{i}"
            chosen.setdefault(router.ring.preference(name)[0], name)
            if len(chosen) == 2:
                break
        return sorted(chosen.values())

    async def _run(self, seconds, setups, on_window, check):
        setup_times, fleet, clients, (nodes, cache_dir) = await self._set_up(setups)
        router = fleet.router
        jobs = [
            [dict(spec, nodes=nodes) for spec in fleet_hot_jobs(self.seed, i, 65536)]
            for i in range(2)
        ]

        def totals() -> dict[str, int]:
            services = [s.service for s in router.instances.values()]
            return {
                "cache_hits": sum(s.runner.cache.stats.hits for s in services),
                "cache_misses": sum(s.runner.cache.stats.misses for s in services),
                "warm_starts": sum(s.metrics.warm_starts for s in services),
                "cold_bootstraps": sum(s.metrics.cold_bootstraps for s in services),
                "placements": router.placements,
            }

        out = Outcome()
        before = totals()
        on_window(True)
        await closed_loop(clients, self._tenants(router), jobs, seconds, out)
        on_window(False)
        after = totals()
        out.extra.update({key: after[key] - before[key] for key in after})
        out.extra.update(migrations=router.migrations, shard_deaths=router.shard_deaths)
        snapshot = await self._teardown(fleet, clients)
        self._drained_checks(out, list(snapshot["shards"].values()))
        out.checks["quiet_fleet"] = router.shard_deaths == 0 and router.migrations == 0
        out.checks["window_all_cache_hits"] = (
            out.extra["cache_misses"] == 0 and out.extra["cache_hits"] == out.runs
        )
        if check:
            out.checks["served_results_match_cache"] = self._match_cache(
                next(iter(router.instances.values())).service, cache_dir, out.jobs
            )
        return setup_times, out

    @staticmethod
    def _match_cache(service, cache_dir: Path, jobs: list[Job]) -> bool:
        """Every served summary equals the one a plain runner computes from
        the same cache."""
        from repro.exp.cache import ResultCache
        from repro.exp.runner import Runner

        runner = Runner(service.config, topology=service.topology,
                        cache=ResultCache(cache_dir))
        expected: dict[int, dict[str, Any]] = {}
        served = [j.record for j in jobs if j.record and j.record["state"] == "completed"]
        for record in served:
            runs = record["request"]["seeds"]
            if runs not in expected:
                specs = runner.job_specs(FLEET_BENCHMARK, FLEET_SCHEDULER, seeds=runs,
                                         timesteps=FLEET_TIMESTEPS)
                expected[runs] = _summary(runner.run_specs(specs))
        return bool(served) and all(
            record["result"] == expected[record["request"]["seeds"]] for record in served
        )

    def run(self, seconds, setups, on_window, check):
        return asyncio.run(self._run(seconds, setups, on_window, check))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Campaign, ServeMixed, FleetHot)
}
