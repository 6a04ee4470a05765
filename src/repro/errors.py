"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Raised for malformed machine topologies or invalid topology queries."""


class MemoryModelError(ReproError):
    """Raised for invalid memory-system operations (bad pages, policies...)."""


class SimulationError(ReproError):
    """Raised when the discrete-event engine reaches an inconsistent state."""


class RuntimeModelError(ReproError):
    """Raised for invalid operations on the simulated OpenMP runtime."""


class ConfigurationError(ReproError):
    """Raised for invalid taskloop configurations or scheduler parameters."""


class WorkloadError(ReproError):
    """Raised for malformed workload/application specifications."""


class ExperimentError(ReproError):
    """Raised by the experiment harness for invalid experiment requests."""


class ServeError(ReproError):
    """Base class of the multi-tenant scheduling service's errors."""


class TransientRunnerError(ServeError):
    """A retryable execution failure (injected or real, e.g. a worker
    pool hiccup): the job may be re-attempted within its attempt budget."""

    code = "transient"


class JobFailed(ServeError):
    """A job exhausted its attempt budget; carries the attempt history.

    ``attempts`` is a list of per-attempt dicts (``attempt``, ``error``,
    ``started_at``, ``finished_at``) in chronological order, so callers
    can see exactly how the job died.
    """

    code = "job_failed"

    def __init__(self, job_id: str, attempts: list[dict]):
        self.job_id = job_id
        self.attempts = list(attempts)
        history = "; ".join(
            f"attempt {a.get('attempt')}: {a.get('error')}" for a in self.attempts
        )
        super().__init__(
            f"job {job_id!r} failed after {len(self.attempts)} attempt(s) [{history}]"
        )
