"""Serve one simulated machine or a fleet: ``python -m repro.serve``.

Examples::

    python -m repro.serve --machine small --port 7077
    python -m repro.serve --queue-capacity 32 --cache-dir .cache
    python -m repro.serve --snapshot-out metrics.json   # final snapshot
    python -m repro.serve --shards 3 --machine small    # a fleet
    python -m repro.serve --shards 4 --high-water 8 \\
        --expose-shards          # each shard also gets its own port
    python -m repro.serve --shards 3 --shard-crash 0.4 \\
        --fault-seed 7           # seeded chaos: a whole shard may die; the
        # failure detector finds it by missed heartbeats, its tenants
        # migrate warm and its jobs requeue on the survivors
    python -m repro.serve --shards 3 --shard-crash 0.4 \\
        --respawn 2 --heartbeat-every 5 --suspect-after 2  # and the
        # supervisor respawns each dead shard at a new epoch

``--shards 1`` (the default) serves one
:class:`~repro.serve.server.SchedulingService`; ``--shards N`` with
N > 1 serves N of them behind a
:class:`~repro.serve.federation.router.FederationRouter`, and only then
do the fleet flags apply (one given at N = 1 is a usage error).  Both
speak the same newline-JSON protocol through the one wire front end, so
``python -m repro.serve.loadgen --connect HOST:PORT`` drives either.  A
bad flag value is a usage error (exit 2) before anything starts.

The server prints its bound address and serves until SIGINT, SIGTERM or
a wire ``drain``: admitted jobs finish, new submissions are rejected with
the typed ``draining`` error, and ``--snapshot-out`` writes the final
metrics snapshot atomically — its job counters always conserve.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from typing import Any

from repro.errors import ReproError
from repro.exp.cliopts import (
    add_campaign_arguments,
    add_machine_argument,
    config_from_args,
    resolve_machine,
)
from repro.serve.faults import FaultPlan, parse_fault_spec
from repro.serve.federation.faults import ShardFaultPlan
from repro.serve.federation.membership import Membership
from repro.serve.federation.router import FederationRouter
from repro.serve.federation.service import FederationService
from repro.serve.federation.shard import build_shards, respawn_factory
from repro.serve.federation.supervisor import ShardSupervisor
from repro.serve.server import SchedulingService

__all__ = ["build_service", "main"]

#: The fleet flags: (flag, default, argparse keywords).  They parse to
#: nothing unless given, so one given at ``--shards 1`` is caught, never
#: ignored; :func:`build_service` fills in the defaults for a fleet.
FLEET_FLAGS: list[tuple[str, Any, dict[str, Any]]] = [
    ("--expose-shards", False, dict(
        action="store_true",
        help="give every shard its own ephemeral TCP port next to the router "
        "(printed on startup)")),
    ("--high-water", None, dict(
        type=int, metavar="DEPTH",
        help="per-shard queue depth beyond which the router sheds the youngest "
        "waiting jobs onto the ring's next shard (default: no rebalancing)")),
    ("--vnodes", 64, dict(
        type=int, help="virtual nodes per shard on the hash ring (default 64)")),
    ("--ring-seed", 0, dict(
        type=int, help="consistent-hash ring placement seed (default 0)")),
    ("--shard-crash", 0.0, dict(
        type=float, metavar="PROB",
        help="probability that a whole shard dies silently at a seeded "
        "placement count (once the failure detector confirms it, its jobs "
        "requeue elsewhere; default 0)")),
    ("--crash-after", (1, 4), dict(
        type=int, nargs=2, metavar=("MIN", "MAX"),
        help="placement-count window a crashing shard's death is drawn from "
        "(default 1 4)")),
    ("--heartbeat-every", 5, dict(
        type=int, metavar="PLACEMENTS",
        help="poll every shard each N router placements (the logical "
        "heartbeat period, default 5)")),
    ("--suspect-after", 2, dict(
        type=int, metavar="POLLS",
        help="missed polls before a shard is SUSPECT and stops taking new "
        "placements (default 2)")),
    ("--confirm-after", 3, dict(
        type=int, metavar="POLLS",
        help="missed polls before a death is confirmed and recovery runs "
        "(must exceed --suspect-after; default 3)")),
    ("--respawn", None, dict(
        type=int, metavar="N",
        help="respawn each confirmed-dead shard up to N times at a new epoch "
        "with a fresh derived fault seed (default: it stays dead)")),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant taskloop scheduling service on one simulated "
        "NUMA machine, or on a fleet of them behind a topology-aware router.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=7077,
                        help="bind port (0 = ephemeral)")
    parser.add_argument("--shards", type=int, default=1,
                        help="simulated machines; N > 1 serves a fleet of N "
                        "shards behind a router (default 1)")
    parser.add_argument("--queue-capacity", type=int, default=16,
                        help="bounded admission queue size per machine; "
                        "submissions beyond it are rejected with the typed "
                        "queue_full error")
    parser.add_argument("--workers", type=int, default=None,
                        help="concurrent job slots per machine "
                        "(default: one per NUMA node)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="attempt budget per job: crashes/transient errors "
                        "requeue the job until the budget is exhausted (then "
                        "a typed JobFailed)")
    parser.add_argument("--default-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="running-time deadline applied to jobs that set "
                        "none; the watchdog cancels overruns (default: none)")
    parser.add_argument("--snapshot-out", default=None, metavar="PATH",
                        help="after the drain, write the final metrics snapshot "
                        "to PATH as JSON (atomic tmp-file + rename write)")
    chaos = parser.add_argument_group("chaos (seeded fault injection)")
    chaos.add_argument("--fault-spec", default=None, metavar="SPEC",
                       help='job-level fault plan, e.g. "crash=0.1,transient=0.2" '
                       "(in a fleet each shard draws from its own derived seed)")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed for every fault layer (default 0)")
    fleet = parser.add_argument_group("fleet (only with --shards N > 1)")
    for flag, _, options in FLEET_FLAGS:
        fleet.add_argument(flag, default=argparse.SUPPRESS, **options)
    add_machine_argument(parser)
    # campaign flags set the *defaults* jobs inherit (seeds, cache, noise)
    add_campaign_arguments(parser)
    return parser


def build_service(args: argparse.Namespace) -> SchedulingService | FederationService:
    """The service (``--shards 1``) or the fleet the parsed flags describe.

    Every constructor validates the flags it consumes, so a bad value
    raises here (:class:`ReproError` or :class:`ValueError`), before
    anything starts.
    """
    fleet = {flag: flag[2:].replace("-", "_") for flag, _, _ in FLEET_FLAGS}
    given = [flag for flag, dest in fleet.items() if dest in vars(args)]
    if args.shards == 1 and given:
        raise ValueError(f"{', '.join(given)}: fleet flag(s) need --shards > 1")
    defaults = {fleet[flag]: value for flag, value, _ in FLEET_FLAGS}
    args = argparse.Namespace(**{**defaults, **vars(args)})
    recipe: dict[str, Any] = dict(
        config=config_from_args(args, seeds_default=1),
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        max_attempts=args.max_attempts,
        default_deadline_s=args.default_deadline,
    )
    faults = None if args.fault_spec is None else parse_fault_spec(args.fault_spec)
    if args.shards == 1:
        plan = None if faults is None else FaultPlan(faults, seed=args.fault_seed)
        return SchedulingService(resolve_machine(args.machine), fault_plan=plan, **recipe)

    def topology():
        return resolve_machine(args.machine)

    recipe.update(fault_probabilities=faults, fault_seed=args.fault_seed)
    supervisor = None
    if args.respawn is not None:
        supervisor = ShardSupervisor(
            respawn_factory(topology, **recipe), max_respawns=args.respawn
        )
    lo, hi = args.crash_after
    router = FederationRouter(
        build_shards(args.shards, topology, **recipe),
        seed=args.ring_seed,
        vnodes=args.vnodes,
        high_water=args.high_water,
        shard_fault_plan=ShardFaultPlan(
            args.shard_crash,
            seed=args.fault_seed,
            min_placements=lo,
            max_placements=hi,
        ),
        membership=Membership(
            heartbeat_every=args.heartbeat_every,
            suspect_after=args.suspect_after,
            confirm_after=args.confirm_after,
        ),
        supervisor=supervisor,
    )
    return FederationService(router, expose_shards=args.expose_shards)


def _banner(service: SchedulingService | FederationService) -> list[str]:
    if isinstance(service, SchedulingService):
        return [f"serving {service.topology.describe()}"]
    shards = service.router.live_shards
    lines = [
        f"serving a fleet of {len(shards)} shard(s), "
        f"{shards[0].service.topology.describe()} each"
    ]
    lines += [f"  {s.shard_id} at {s.host}:{s.port}" for s in shards if s.port is not None]
    return lines


def _summary(snapshot: dict[str, Any]) -> list[str]:
    if "router" not in snapshot:
        jobs = snapshot["jobs"]
        return [
            f"drained: {jobs['completed']} completed, {jobs['failed']} failed, "
            f"{jobs['rejected_total']} rejected"
        ]
    router = snapshot["router"]
    states = router["job_states"]
    membership = snapshot["membership"]
    respawns = membership["respawns"] or {}
    return [
        f"drained: {states['completed']} completed, {states['failed']} failed "
        f"across {len(snapshot['fleet']['alive'])} live shard(s); "
        f"{router['migrations']} migration(s), "
        f"{router['shard_deaths']} shard death(s)",
        f"self-healing: {membership['heartbeats']} heartbeat(s), "
        f"{membership['deaths_confirmed']} confirmed death(s), "
        f"{respawns.get('respawns_total', 0)} respawn(s), "
        f"{membership['migrations_completed']} warm migration(s), "
        f"{membership['migrations_dropped']} dropped",
    ]


async def _serve(
    service: SchedulingService | FederationService, args: argparse.Namespace
) -> int:
    host, port = await service.start(args.host, args.port)
    # signal → event: the handler runs on the loop, so the drain (and the
    # final snapshot write) happen in ordinary task context, not inside a
    # signal frame.  Installed before the readiness line is printed — a
    # supervisor may SIGTERM the instant it sees the address.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loop: ctrl-c falls back to KeyboardInterrupt
    for line in _banner(service):
        print(line)
    print(f"listening on {host}:{port}; SIGINT/SIGTERM drain gracefully", flush=True)
    try:
        # a wire drain ends the process too: wait for whichever comes first
        waits = [asyncio.ensure_future(service.wait_drained()),
                 asyncio.ensure_future(stop.wait())]
        try:
            await asyncio.wait(waits, return_when=asyncio.FIRST_COMPLETED)
        except (KeyboardInterrupt, asyncio.CancelledError):  # repro: noqa EXC001 -- top of the CLI: ctrl-c *is* the drain signal; nothing above this frame needs the cancellation, and re-raising would traceback at the terminal
            pass
        finally:
            for w in waits:
                w.cancel()
        print("draining: finishing admitted jobs, rejecting new ones", flush=True)
        snapshot = await service.drain()
        for line in _summary(snapshot):
            print(line)
        if args.snapshot_out:
            out = service.persist_snapshot(args.snapshot_out)
            print(f"final metrics snapshot written to {out}")
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        service = build_service(args)
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))  # a usage error (exit 2), not a traceback
    with contextlib.suppress(KeyboardInterrupt):
        return asyncio.run(_serve(service, args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
