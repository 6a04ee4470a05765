"""The federation's wire front-end: one port, the whole fleet behind it.

:class:`FederationService` speaks the *existing* newline-JSON protocol —
``submit`` / ``status`` / ``metrics`` / ``drain`` / ``ping``, plus the
federation-only ``membership`` op exposing the failure detector's view
(member states, epochs, respawns, warm-migration counters) — so every
client built for a single :class:`~repro.serve.server.SchedulingService`
(the :class:`~repro.serve.client.ServiceClient`, the load generator, the
smoke scripts) drives a federation unchanged; only the job ids
(``fed-00001``) and the extra ``shard`` / ``placements`` fields betray
the fleet underneath.

Graceful drain drains every live shard (admitted jobs finish, new
submissions bounce with the typed ``draining`` rejection), then closes
the router listener; :meth:`FederationService.persist_snapshot` writes
the final federated snapshot through
:func:`repro.ioutil.atomic_write_json`, so a killed process leaves the
previous snapshot or the new one, never torn JSON.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.ioutil import atomic_write_json
from repro.serve.federation.router import FederationRouter
from repro.serve.protocol import (
    AdmissionRejected,
    JobRequest,
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    write_message,
)

__all__ = ["FederationService"]


class FederationService:
    """TCP listener dispatching the line protocol onto a router."""

    def __init__(self, router: FederationRouter):
        self.router = router
        self._server: asyncio.base_events.Server | None = None
        self._drained = asyncio.Event()
        self._drain_started = False

    # ------------------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        expose_shards: bool = False,
    ) -> tuple[str, int]:
        """Start every shard, then the router listener; returns (host, port)."""
        await self.router.start(expose_shards=expose_shards, host=host)
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("federation has no TCP listener")
        return self._server.sockets[0].getsockname()[1]

    async def drain(self) -> dict[str, Any]:
        """Drain every live shard, close the listener; idempotent."""
        if not self._drain_started:
            self._drain_started = True
            await self.router.drain()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
            self._drained.set()
        await self._drained.wait()
        return self.router.metrics_snapshot()

    def persist_snapshot(self, path: str | Path) -> Path:
        """Atomically write the federated snapshot (tmp + fsync + rename)."""
        return atomic_write_json(Path(path), self.router.metrics_snapshot())

    # ------------------------------------------------------------------
    # wire handling (same loop shape as the single-machine server)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    await write_message(writer, error_response("bad_request", str(exc)))
                    continue
                if message is None:
                    return
                response = await self._dispatch(message)
                await write_message(writer, response)
                if message.get("op") == "drain":
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            raise  # cancellation must propagate; `finally` closes the writer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        try:
            if op == "ping":
                return ok_response(
                    pong=True,
                    federation=True,
                    fleet=[s.describe() for s in self.router.live_shards],
                )
            if op == "submit":
                request = JobRequest.from_wire(message.get("job") or {})
                job = await self.router.submit(request)
                local = self.router.status(job.fed_id)
                return ok_response(
                    job_id=job.fed_id, state=local["state"], shard=job.shard_id
                )
            if op == "status":
                # status traffic pumps detection: closed-loop clients
                # polling stranded jobs would otherwise freeze the
                # placement clock and the death would never confirm
                await self.router.pump_detection()
                return ok_response(job=self.router.status(message.get("job_id", "")))
            if op == "metrics":
                return ok_response(metrics=self.router.metrics_snapshot())
            if op == "membership":
                return ok_response(membership=self.router.membership_snapshot())
            if op == "drain":
                snapshot = await self.drain()
                return ok_response(metrics=snapshot)
            raise ProtocolError(f"unknown op {op!r}")
        except AdmissionRejected as exc:
            return error_response(
                exc.code, str(exc), depth=exc.depth, capacity=exc.capacity
            )
        except ProtocolError as exc:
            return error_response("bad_request", str(exc))
        except ReproError as exc:
            return error_response("internal", f"{type(exc).__name__}: {exc}")
