"""The fleet's binding to the wire front end: one port, the whole fleet.

:class:`FederationService` is the backend of the one
:class:`~repro.serve.frontend.WireFrontEnd` for a
:class:`~repro.serve.federation.router.FederationRouter`: it has no
listener, dispatcher or snapshot writer of its own, only the answers.
Every client built for a single
:class:`~repro.serve.server.SchedulingService` (the
:class:`~repro.serve.client.ServiceClient`, the load generator) drives a
fleet unchanged; only the job ids (``fed-00001``), the extra ``shard`` /
``placements`` fields and the ``membership`` op (the failure detector's
view: member states, epochs, respawns, warm-migration counters) betray
the fleet underneath.  ``wait`` is :meth:`FederationRouter.wait`, which
follows a job across re-placements and pumps the failure detector while
the job is stranded on an unconfirmed crash.  Draining drains every
live shard, then closes the router's listener.
"""

from __future__ import annotations

from typing import Any

from repro.serve.federation.router import FederationRouter
from repro.serve.frontend import WireFrontEnd
from repro.serve.protocol import JobRequest

__all__ = ["FederationService"]


class FederationService(WireFrontEnd):
    """The wire front end over a router; ``expose_shards`` also gives
    every shard its own ephemeral port when the fleet starts."""

    def __init__(self, router: FederationRouter, *, expose_shards: bool = False):
        super().__init__()
        self.router = router
        self.expose_shards = expose_shards

    async def _start_backend(self, host: str) -> None:
        await self.router.start(expose_shards=self.expose_shards, host=host)

    async def _drain_backend(self) -> None:
        await self.router.drain()

    def ping_fields(self) -> dict[str, Any]:
        return {
            "federation": True,
            "fleet": [s.describe() for s in self.router.live_shards],
        }

    async def submit_fields(self, request: JobRequest) -> dict[str, Any]:
        job = await self.router.submit(request)
        state = self.router.record(job.fed_id).state.value
        return {"job_id": job.fed_id, "state": state, "shard": job.shard_id}

    async def status_wire(self, job_id: str) -> dict[str, Any]:
        # status traffic pumps detection: closed-loop clients polling
        # stranded jobs would otherwise freeze the placement clock and
        # the death would never confirm
        await self.router.pump_detection()
        return self.router.status(job_id)

    async def wait_wire(self, job_id: str, timeout_s: float | None) -> dict[str, Any]:
        return await self.router.wait(job_id, timeout_s)

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.router.metrics_snapshot()

    def membership_snapshot(self) -> dict[str, Any]:
        return self.router.membership_snapshot()
