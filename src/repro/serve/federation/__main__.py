"""Run a federated fleet: ``python -m repro.serve.federation [options]``.

Examples::

    python -m repro.serve.federation --shards 3 --machine small --port 7078
    python -m repro.serve.federation --shards 4 --high-water 8 \\
        --expose-shards          # each shard also gets its own port
    python -m repro.serve.federation --shards 3 --shard-crash 0.4 \\
        --fault-seed 7           # seeded chaos: a whole shard may die; the
        # failure detector finds it by missed heartbeats, its tenants
        # migrate warm and its jobs requeue on the survivors
    python -m repro.serve.federation --shards 3 --shard-crash 0.4 \\
        --respawn 2 --heartbeat-every 5 --suspect-after 2  # and the
        # supervisor respawns each dead shard at a new epoch

The router prints its bound address (and, with ``--expose-shards``, every
shard's address) on startup; clients speak the same newline-JSON protocol
as the single-machine server, so ``python -m repro.serve.loadgen
--connect HOST:PORT`` works against the router port unchanged.  SIGINT
and SIGTERM drain gracefully: every live shard finishes its admitted
jobs, new submissions are rejected with the typed ``draining`` error, and
``--snapshot-out`` writes the final federated snapshot atomically.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.errors import ReproError
from repro.exp.cliopts import (
    add_campaign_arguments,
    add_machine_argument,
    config_from_args,
    resolve_machine,
)
from repro.serve.faults import parse_fault_spec
from repro.serve.federation.faults import ShardFaultPlan
from repro.serve.federation.membership import Membership
from repro.serve.federation.router import FederationRouter
from repro.serve.federation.service import FederationService
from repro.serve.federation.shard import build_shards, respawn_factory
from repro.serve.federation.supervisor import ShardSupervisor

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.federation",
        description="Shard the multi-tenant scheduling service across a "
        "fleet of simulated machines behind a topology-aware router.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=7078,
                        help="router bind port (0 = ephemeral)")
    parser.add_argument("--shards", type=int, default=3,
                        help="number of SchedulingService shards (default 3)")
    parser.add_argument("--expose-shards", action="store_true",
                        help="give every shard its own ephemeral TCP port "
                        "next to the router (printed on startup)")
    parser.add_argument("--queue-capacity", type=int, default=16,
                        help="per-shard bounded admission queue size")
    parser.add_argument("--workers", type=int, default=None,
                        help="per-shard concurrent job slots "
                        "(default: one per NUMA node)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="per-shard attempt budget per job")
    parser.add_argument("--default-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="running-time deadline for jobs that set none")
    parser.add_argument("--high-water", type=int, default=None,
                        metavar="DEPTH",
                        help="per-shard queue depth beyond which the router "
                        "sheds the youngest waiting jobs onto the ring's "
                        "next shard (default: no rebalancing)")
    parser.add_argument("--vnodes", type=int, default=64,
                        help="virtual nodes per shard on the hash ring")
    parser.add_argument("--ring-seed", type=int, default=0,
                        help="consistent-hash ring placement seed")
    chaos = parser.add_argument_group("chaos (seeded fault injection)")
    chaos.add_argument("--fault-spec", default=None, metavar="SPEC",
                       help='per-shard job-level fault plan, e.g. '
                       '"crash=0.1,transient=0.2" (each shard draws from '
                       "its own derived seed)")
    chaos.add_argument("--shard-crash", type=float, default=0.0,
                       metavar="PROB",
                       help="probability that a whole shard dies silently at "
                       "a seeded placement count (once the failure detector "
                       "confirms it, its jobs requeue elsewhere)")
    chaos.add_argument("--crash-after", type=int, nargs=2, default=(1, 4),
                       metavar=("MIN", "MAX"),
                       help="placement-count window a crashing shard's death "
                       "is drawn from (default 1 4)")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed for both fault layers (default 0)")
    healing = parser.add_argument_group(
        "self-healing (logical-clock failure detector and respawn)")
    healing.add_argument("--heartbeat-every", type=int, default=5,
                         metavar="PLACEMENTS",
                         help="poll every shard each N router placements "
                         "(the logical heartbeat period, default 5)")
    healing.add_argument("--suspect-after", type=int, default=2,
                         metavar="POLLS",
                         help="missed polls before a shard is SUSPECT and "
                         "stops taking new placements (default 2)")
    healing.add_argument("--confirm-after", type=int, default=3,
                         metavar="POLLS",
                         help="missed polls before a death is confirmed and "
                         "recovery runs (must exceed --suspect-after; "
                         "default 3)")
    healing.add_argument("--respawn", type=int, default=None, metavar="N",
                         help="supervise confirmed-dead shards: respawn each "
                         "up to N times at a new epoch with a fresh derived "
                         "fault seed (default: a confirmed-dead shard stays "
                         "dead)")
    parser.add_argument("--snapshot-out", default=None, metavar="PATH",
                        help="after the drain, write the federated snapshot "
                        "to PATH (atomic tmp-file + rename write)")
    add_machine_argument(parser)
    add_campaign_arguments(parser)
    return parser


def build_federation(args: argparse.Namespace) -> FederationService:
    """Construct the fleet + router + front-end from parsed flags.

    Every constructor validates its own flags, so a bad value raises
    here, before anything starts.
    """
    def topology():
        return resolve_machine(args.machine)

    recipe = dict(
        config=config_from_args(args, seeds_default=1),
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        max_attempts=args.max_attempts,
        default_deadline_s=args.default_deadline,
        fault_probabilities=(
            parse_fault_spec(args.fault_spec) if args.fault_spec is not None else None
        ),
        fault_seed=args.fault_seed,
    )
    lo, hi = args.crash_after
    supervisor = None
    if args.respawn is not None:
        supervisor = ShardSupervisor(
            respawn_factory(topology, **recipe), max_respawns=args.respawn
        )
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
    return FederationService(router)


async def _serve(federation: FederationService, args: argparse.Namespace) -> int:
    host, port = await federation.start(
        args.host, args.port, expose_shards=args.expose_shards
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loop: ctrl-c falls back to KeyboardInterrupt
    shards = federation.router.live_shards
    print(f"federation of {len(shards)} shard(s), "
          f"{shards[0].service.topology.describe()} each")
    if args.expose_shards:
        for shard in shards:
            print(f"  {shard.shard_id} listening on {shard.host}:{shard.port}")
    print(f"router listening on {host}:{port}; SIGINT/SIGTERM drain gracefully",
          flush=True)
    try:
        try:
            await stop.wait()
        except (KeyboardInterrupt, asyncio.CancelledError):  # repro: noqa EXC001 -- top of the CLI: ctrl-c *is* the drain signal; nothing above this frame needs the cancellation, and re-raising would traceback at the terminal
            pass
        print("draining: finishing admitted jobs on every live shard", flush=True)
        snapshot = await federation.drain()
        router = snapshot["router"]
        states = router["job_states"]
        print(
            f"drained: {states['completed']} completed, {states['failed']} "
            f"failed across {len(snapshot['fleet']['alive'])} live shard(s); "
            f"{router['migrations']} migration(s), "
            f"{router['shard_deaths']} shard death(s)"
        )
        membership = snapshot["membership"]
        respawns = membership["respawns"] or {}
        print(
            f"self-healing: {membership['heartbeats']} heartbeat(s), "
            f"{membership['deaths_confirmed']} confirmed death(s), "
            f"{respawns.get('respawns_total', 0)} respawn(s), "
            f"{membership['migrations_completed']} warm migration(s), "
            f"{membership['migrations_dropped']} dropped"
        )
        if args.snapshot_out:
            out = federation.persist_snapshot(args.snapshot_out)
            print(f"final federated snapshot written to {out}")
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        federation = build_federation(args)
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))  # a usage error (exit 2), not a traceback
    with contextlib.suppress(KeyboardInterrupt):
        return asyncio.run(_serve(federation, args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
