"""The one wire front end: a TCP listener and an op dispatcher.

Both served systems speak the newline-JSON protocol through
:class:`WireFrontEnd`: :class:`~repro.serve.server.SchedulingService`
(one simulated machine) and
:class:`~repro.serve.federation.service.FederationService` (a fleet of
them behind a router).  Each subclass implements the small backend
interface below — what ``ping`` reports, how a job is admitted and
looked up, the metrics snapshot, how admitted work is drained and, for
the fleet, a membership view — and the listener, the connection loop,
the dispatcher, the idempotent drain and the snapshot write exist once.

Ops: ``ping``, ``submit``, ``status``, ``wait``, ``metrics``, ``drain``
and, where the backend has a membership view, ``membership``.  ``wait``
holds its reply until the job is terminal, or until its optional
``timeout_s`` expires, and then answers exactly as ``status`` would.  A
``drain`` closes the connection that sent it once the reply is written;
every other error is a typed reply and the connection stays open.
"""

from __future__ import annotations

import asyncio
import math
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.ioutil import atomic_write_json
from repro.serve.protocol import (
    AdmissionRejected,
    JobRequest,
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    write_message,
)

__all__ = ["WireFrontEnd"]


class WireFrontEnd:
    """One listener and one dispatcher; the subclass is the backend."""

    def __init__(self) -> None:
        self._server: asyncio.base_events.Server | None = None
        self._drained = asyncio.Event()
        self._drain_started = False

    # ------------------------------------------------------------------
    # the backend interface
    # ------------------------------------------------------------------
    async def _start_backend(self, host: str) -> None:
        """Start what runs the jobs; called before the listener opens."""
        raise NotImplementedError

    async def _drain_backend(self) -> None:
        """Refuse new jobs and finish every admitted one."""
        raise NotImplementedError

    def ping_fields(self) -> dict[str, Any]:
        """What a ``ping`` reply reports next to ``pong``."""
        raise NotImplementedError

    async def submit_fields(self, request: JobRequest) -> dict[str, Any]:
        """Admit one job; the fields of the ``submit`` reply."""
        raise NotImplementedError

    async def status_wire(self, job_id: str) -> dict[str, Any]:
        """One job's wire record; :class:`ProtocolError` if unknown."""
        raise NotImplementedError

    async def wait_wire(self, job_id: str, timeout_s: float | None) -> dict[str, Any]:
        """The job's wire record once it is terminal, or as it stands when
        ``timeout_s`` (``None``: never) expires; :class:`ProtocolError` if
        unknown."""
        raise NotImplementedError

    def metrics_snapshot(self) -> dict[str, Any]:
        """The JSON-able live state the ``metrics`` op returns."""
        raise NotImplementedError

    def membership_snapshot(self) -> dict[str, Any] | None:
        """The failure detector's view; ``None`` (no ``membership`` op)
        for a backend without one."""
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the backend, then the TCP listener; returns (host, port)."""
        await self._start_backend(host)
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    async def drain(self) -> dict[str, Any]:
        """Graceful shutdown: reject new work, finish admitted work, stop
        the listener; returns the final metrics snapshot.

        Idempotent — concurrent callers (an API call, a wire ``drain``, a
        signal) all await the same completion.
        """
        if not self._drain_started:
            self._drain_started = True
            await self._drain_backend()
            await self._close_listener()
            self._drained.set()
        await self._drained.wait()
        return self.metrics_snapshot()

    async def wait_drained(self) -> None:
        """Return once a drain, started by anyone, has finished."""
        await self._drained.wait()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def persist_snapshot(self, path: str | Path) -> Path:
        """Atomically write the current metrics snapshot as JSON.

        Tmp file + fsync + rename: a server killed mid-write leaves
        either the previous snapshot or the new one, never torn JSON.
        """
        return atomic_write_json(Path(path), self.metrics_snapshot())

    # ------------------------------------------------------------------
    # wire handling
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
                return ok_response(pong=True, **self.ping_fields())
            if op == "submit":
                request = JobRequest.from_wire(message.get("job") or {})
                return ok_response(**await self.submit_fields(request))
            if op == "status":
                return ok_response(job=await self.status_wire(_job_id(message)))
            if op == "wait":
                job_id = _job_id(message)
                return ok_response(job=await self.wait_wire(job_id, _timeout_s(message)))
            if op == "metrics":
                return ok_response(metrics=self.metrics_snapshot())
            if op == "membership" and (view := self.membership_snapshot()) is not None:
                return ok_response(membership=view)
            if op == "drain":
                return ok_response(metrics=await self.drain())
            raise ProtocolError(f"unknown op {op!r}")
        except AdmissionRejected as exc:
            return error_response(exc.code, str(exc), depth=exc.depth, capacity=exc.capacity)
        except ProtocolError as exc:
            return error_response("bad_request", str(exc))
        except ReproError as exc:
            return error_response("internal", f"{type(exc).__name__}: {exc}")


def _job_id(message: dict[str, Any]) -> str:
    """The job id a ``status`` or ``wait`` names (absent: the empty id,
    which no job has)."""
    job_id = message.get("job_id", "")
    if not isinstance(job_id, str):
        raise ProtocolError(f"'job_id' must be a string, got {job_id!r}")
    return job_id


def _timeout_s(message: dict[str, Any]) -> float | None:
    """A ``wait``'s optional ``timeout_s``: positive and finite seconds."""
    value = message.get("timeout_s")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0 < value < math.inf  # NaN fails both comparisons
    ):
        raise ProtocolError(
            f"'timeout_s' must be a positive finite number, got {value!r}"
        )
    return float(value)
