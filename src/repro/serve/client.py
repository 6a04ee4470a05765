"""Asyncio client for the scheduling service's line protocol.

Used by the load generator, the CI smoke scripts and the service tests;
applications embedding the service in-process can skip the socket and
call :class:`~repro.serve.server.SchedulingService` directly.

Resilience built in:

* :meth:`ServiceClient.wait` is one request: the service answers when
  the job is terminal, so there is no poll loop and no sleep.  A
  ``timeout`` travels to the service as ``timeout_s``, which answers
  with the record as it stands when it expires; the client raises
  :class:`asyncio.TimeoutError` on that non-terminal reply, having read
  it, so the connection stays in sync.  ``timeout=None`` means *no*
  timeout machinery at all (nothing is wrapped in ``wait_for``);
* :meth:`ServiceClient.submit_with_retry` retries transient failures —
  typed ``queue_full`` backpressure and dropped connections — with
  exponential backoff plus *full jitter* (``uniform(0, min(cap, base·2ⁿ))``)
  from an injectable RNG, so chaos tests replay identical schedules.
  The default jitter source is the seed-derived
  :func:`repro.sim.rng.pyrandom` substream ``("serve.client", "retry")``
  — byte-identical replay by construction, never entropy-seeded.
  ``draining`` rejections are never retried: they cannot succeed.
* :meth:`ServiceClient.reconnect` re-dials under a **capped attempt
  budget** with the same full-jitter backoff; a permanently dead
  endpoint fails fast with the typed :class:`ReconnectExhausted`
  (carrying the attempt count and last error) instead of looping
  forever against a machine that is never coming back.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Mapping

from repro.errors import ServeError
from repro.sim.rng import pyrandom

from repro.serve.protocol import (
    AdmissionRejected,
    JobRequest,
    ProtocolError,
    raise_for_error,
    read_message,
    write_message,
)

__all__ = ["ReconnectExhausted", "ServiceClient"]

#: Connection-level failures worth a reconnect-and-retry (covers reset,
#: refused, aborted and broken-pipe; ``OSError`` catches resolver and
#: socket-level failures raised by ``open_connection`` itself).
_CONNECTION_ERRORS = (ConnectionError,)
_DIAL_ERRORS = (ConnectionError, OSError)


class ReconnectExhausted(ServeError):
    """The reconnect attempt budget ran out: the endpoint stayed dead.

    Carries how many dials were attempted and the last connection error,
    so callers (and the load generator's failure accounting) can tell a
    dead endpoint from a transient blip without parsing messages.
    """

    code = "reconnect_exhausted"

    def __init__(self, message: str, *, attempts: int, last_error: str):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class ServiceClient:
    """One connection to a running service; not safe for concurrent use —
    open one client per submitting coroutine (they are cheap)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        host: str | None = None,
        port: int | None = None,
    ):
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host=host, port=port)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def reconnect(
        self,
        *,
        max_attempts: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        rng: random.Random | None = None,
        sleep: Callable[[float], Any] = asyncio.sleep,
    ) -> None:
        """Drop the current connection and dial the service again.

        Dials up to ``max_attempts`` times with the same full-jitter
        backoff schedule as :meth:`submit_with_retry` (the n-th retry
        sleeps ``uniform(0, min(max_delay, base_delay * 2**n))``); when
        the budget runs out, raises :class:`ReconnectExhausted` so
        callers fail fast on a dead endpoint instead of spinning.

        Only available on clients built via :meth:`connect` (which know
        their address); raises :class:`ProtocolError` otherwise.
        """
        if self._host is None or self._port is None:
            raise ProtocolError("client has no remembered address to reconnect to")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if rng is None:
            rng = pyrandom(0, "serve.client", "reconnect")
        await self.close()
        last_error = "unknown"
        for attempt in range(max_attempts):
            if attempt > 0:
                bound = min(max_delay, base_delay * (2.0 ** attempt))
                await sleep(rng.uniform(0.0, bound))
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self._host, self._port
                )
                return
            except _DIAL_ERRORS as exc:
                last_error = f"{type(exc).__name__}: {exc}"
        raise ReconnectExhausted(
            f"gave up reconnecting to {self._host}:{self._port} "
            f"after {max_attempts} attempts ({last_error})",
            attempts=max_attempts,
            last_error=last_error,
        )

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """One request/response round trip; raises the typed error on nok."""
        await write_message(self._writer, payload)
        response = await read_message(self._reader)
        if response is None:
            raise ProtocolError("service closed the connection mid-request")
        return raise_for_error(response)

    # ------------------------------------------------------------------
    async def ping(self) -> dict[str, Any]:
        return await self.request({"op": "ping"})

    async def submit(self, request: JobRequest) -> str:
        """Submit one job; returns its id.  Raises
        :class:`~repro.serve.protocol.AdmissionRejected` on backpressure."""
        response = await self.request({"op": "submit", "job": request.to_wire()})
        return response["job_id"]

    async def submit_with_retry(
        self,
        request: JobRequest,
        *,
        max_retries: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        rng: random.Random | None = None,
        sleep: Callable[[float], Any] = asyncio.sleep,
    ) -> str:
        """Submit with exponential backoff + full jitter on transient failure.

        Retries typed ``queue_full`` rejections and connection drops
        (reconnecting first) up to ``max_retries`` times; the n-th retry
        sleeps ``uniform(0, min(max_delay, base_delay * 2**n))``.
        ``draining`` rejections and protocol errors are raised immediately.
        """
        if rng is None:
            rng = pyrandom(0, "serve.client", "retry")
        attempt = 0
        while True:
            try:
                return await self.submit(request)
            except AdmissionRejected as exc:
                if exc.code != "queue_full" or attempt >= max_retries:
                    raise
            except _CONNECTION_ERRORS:
                if attempt >= max_retries:
                    raise
                await self.reconnect()
            attempt += 1
            bound = min(max_delay, base_delay * (2.0 ** attempt))
            await sleep(rng.uniform(0.0, bound))

    async def status(self, job_id: str) -> dict[str, Any]:
        response = await self.request({"op": "status", "job_id": job_id})
        return response["job"]

    async def wait(
        self,
        job_id: str,
        *,
        poll_interval: float = 0.02,
        max_poll_interval: float = 0.5,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns its record.

        One ``wait`` request, answered by the service when the job
        finishes.  With ``timeout`` (seconds, positive and finite) the
        service answers once it expires, and a record still not terminal
        raises :class:`asyncio.TimeoutError`.  ``poll_interval`` and
        ``max_poll_interval`` are accepted for compatibility and have no
        effect.
        """
        payload: dict[str, Any] = {"op": "wait", "job_id": job_id}
        if timeout is not None:
            payload["timeout_s"] = timeout
        job = (await self.request(payload))["job"]
        if job["state"] not in ("completed", "failed"):
            raise asyncio.TimeoutError(
                f"job {job_id!r} still {job['state']} after {timeout}s"
            )
        return job

    async def metrics(self) -> dict[str, Any]:
        response = await self.request({"op": "metrics"})
        return response["metrics"]

    async def drain(self) -> dict[str, Any]:
        """Ask the service to drain gracefully; returns the final snapshot."""
        response = await self.request({"op": "drain"})
        return response["metrics"]
