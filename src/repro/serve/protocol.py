"""Wire protocol of the multi-tenant scheduling service.

Newline-delimited JSON over a stream: every request and response is one
JSON object on one line.  Requests carry an ``op`` field (``submit``,
``status``, ``wait``, ``metrics``, ``drain``, ``ping``); responses carry
``ok`` plus either the payload or a typed ``error`` object ``{"code",
"message", ...}`` that client code can turn back into the matching
exception.

The module also defines the job model shared by the in-process API and
the wire: :class:`JobRequest` (what a tenant asks for), :class:`JobState`
(the lifecycle) and :class:`JobRecord` (everything the service knows about
one submitted job).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from repro.errors import ServeError

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "AdmissionRejected",
    "LeaseError",
    "JobState",
    "JobRequest",
    "JobRecord",
    "encode_message",
    "decode_message",
    "read_message",
    "write_message",
    "ok_response",
    "error_response",
    "raise_for_error",
]

#: Upper bound on one protocol line; submissions are tiny, so anything
#: larger is a malformed or hostile client.
MAX_MESSAGE_BYTES = 1 << 20


class ProtocolError(ServeError):
    """Malformed request or response (bad JSON, missing/invalid fields)."""

    code = "bad_request"


class AdmissionRejected(ServeError):
    """Typed backpressure signal: the service refused a submission.

    ``code`` discriminates the reason: ``queue_full`` (bounded admission
    queue saturated) or ``draining`` (shutdown in progress).  ``depth``
    and ``capacity`` describe the queue at rejection time.
    """

    def __init__(self, code: str, message: str, *, depth: int = 0, capacity: int = 0):
        super().__init__(message)
        self.code = code
        self.depth = depth
        self.capacity = capacity

    def to_wire(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": str(self),
            "depth": self.depth,
            "capacity": self.capacity,
        }


class LeaseError(ServeError):
    """Invalid NUMA-lease operation (unknown job, double grant, bad size)."""

    code = "lease_error"


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED)


def _positive_int(value: Any) -> bool:
    """A JSON integer >= 1.  ``isinstance(True, int)`` holds, so a JSON
    boolean is excluded by name."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class JobRequest:
    """What one tenant submits: a taskloop campaign plus a lease size.

    ``nodes`` is the number of NUMA nodes the job wants leased; the
    arbiter grants a topology-proximate disjoint mask of exactly that
    many nodes before the job runs.
    """

    benchmark: str
    scheduler: str = "ilan"
    seeds: int = 1
    timesteps: int | None = None
    nodes: int = 1
    tenant: str = "anon"
    #: Running-time budget in seconds; past it the watchdog cancels the
    #: job (terminal ``deadline_exceeded`` failure).  ``None`` defers to
    #: the service's default deadline (which may also be none).
    deadline_s: float | None = None

    def validate(self) -> None:
        if not self.benchmark or not isinstance(self.benchmark, str):
            raise ProtocolError("job request needs a non-empty 'benchmark'")
        if not self.scheduler or not isinstance(self.scheduler, str):
            raise ProtocolError("job request needs a non-empty 'scheduler'")
        if not _positive_int(self.seeds):
            raise ProtocolError(f"'seeds' must be a positive int, got {self.seeds!r}")
        if self.timesteps is not None and not _positive_int(self.timesteps):
            raise ProtocolError(
                f"'timesteps' must be a positive int or null, got {self.timesteps!r}"
            )
        if not _positive_int(self.nodes):
            raise ProtocolError(f"'nodes' must be a positive int, got {self.nodes!r}")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ProtocolError("'tenant' must be a non-empty string")
        if self.deadline_s is not None:
            if not isinstance(self.deadline_s, (int, float)) or isinstance(
                self.deadline_s, bool
            ):
                raise ProtocolError(
                    f"'deadline_s' must be a positive number or null, "
                    f"got {self.deadline_s!r}"
                )
            if not self.deadline_s > 0:
                raise ProtocolError(
                    f"'deadline_s' must be a positive number or null, "
                    f"got {self.deadline_s!r}"
                )

    def to_wire(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "scheduler": self.scheduler,
            "seeds": self.seeds,
            "timesteps": self.timesteps,
            "nodes": self.nodes,
            "tenant": self.tenant,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "JobRequest":
        if not isinstance(data, Mapping):
            raise ProtocolError(f"job request must be an object, got {type(data).__name__}")
        known = {"benchmark", "scheduler", "seeds", "timesteps", "nodes",
                 "tenant", "deadline_s"}
        unknown = set(data) - known
        if unknown:
            raise ProtocolError(f"unknown job request field(s): {sorted(unknown)}")
        if "benchmark" not in data:
            raise ProtocolError("job request needs a non-empty 'benchmark'")
        deadline = data.get("deadline_s")
        req = cls(
            benchmark=data["benchmark"],
            scheduler=data.get("scheduler", "ilan"),
            seeds=data.get("seeds", 1),
            timesteps=data.get("timesteps"),
            nodes=data.get("nodes", 1),
            tenant=data.get("tenant", "anon"),
            deadline_s=float(deadline) if isinstance(deadline, (int, float))
            and not isinstance(deadline, bool) else deadline,
        )
        req.validate()
        return req


@dataclass
class JobRecord:
    """Everything the service tracks about one admitted job."""

    job_id: str
    request: JobRequest
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    lease_nodes: list[int] | None = None
    error: str | None = None
    result: dict[str, Any] | None = None
    #: Completed execution attempts (a clean first run finishes with 0
    #: recorded failures here; every crash/transient adds one entry).
    attempts: int = 0
    attempt_history: list[dict[str, Any]] = field(default_factory=list)

    def record_attempt_failure(self, error: str, *, started_at: float | None,
                               failed_at: float) -> None:
        """Append one failed attempt to the history and bump the count."""
        self.attempts += 1
        self.attempt_history.append({
            "attempt": self.attempts,
            "error": error,
            "started_at": started_at,
            "finished_at": failed_at,
        })

    @property
    def latency(self) -> float | None:
        """Submit-to-finish latency; ``None`` until the job is terminal."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_wire(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "request": self.request.to_wire(),
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "lease_nodes": self.lease_nodes,
            "error": self.error,
            "result": self.result,
            "attempts": self.attempts,
            "attempt_history": list(self.attempt_history),
        }


# ----------------------------------------------------------------------
# line codec
# ----------------------------------------------------------------------
def encode_message(payload: Mapping[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the newline delimiter."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict[str, Any]:
    """Parse one protocol line into a dict; typed error on garbage."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"protocol message must be an object, got {type(payload).__name__}")
    return payload


async def read_message(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Next message from a stream, or ``None`` on a clean EOF."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-message") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("protocol line exceeds the message size limit") from exc
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError("protocol line exceeds the message size limit")
    return decode_message(line)


async def write_message(writer: asyncio.StreamWriter, payload: Mapping[str, Any]) -> None:
    writer.write(encode_message(payload))
    await writer.drain()


# ----------------------------------------------------------------------
# response envelopes
# ----------------------------------------------------------------------
def ok_response(**fields: Any) -> dict[str, Any]:
    return {"ok": True, **fields}


def error_response(code: str, message: str, **extra: Any) -> dict[str, Any]:
    return {"ok": False, "error": {"code": code, "message": message, **extra}}


def raise_for_error(response: Mapping[str, Any]) -> dict[str, Any]:
    """Turn an error response back into its typed exception; pass oks through."""
    if response.get("ok"):
        return dict(response)
    err = response.get("error")
    if not isinstance(err, Mapping):
        raise ProtocolError(f"malformed error response: {response!r}")
    code = err.get("code", "unknown")
    message = err.get("message", "unknown service error")
    if code in ("queue_full", "draining"):
        raise AdmissionRejected(
            code,
            message,
            depth=int(err.get("depth", 0)),
            capacity=int(err.get("capacity", 0)),
        )
    if code == "lease_error":
        raise LeaseError(message)
    raise ProtocolError(f"{code}: {message}")
