"""Multi-tenant scheduling service for concurrent taskloop campaigns.

This package turns the single-program simulator into a served system:
many concurrent clients submit jobs against one simulated machine, a
global NUMA arbiter hands each active job a disjoint topology-proximate
node lease, ILAN molds each job inside its lease, a bounded admission
queue applies typed backpressure, and a metrics endpoint exposes the live
per-job and per-node state.

The failure path is first-class: a seeded
:class:`~repro.serve.faults.FaultPlan` deterministically injects worker
crashes, transient runner errors, deadline hangs and client disconnects,
and the recovery machinery (lease reclamation, bounded-budget requeue,
watchdog cancellation, client backoff) is what the chaos tests replay.

One wire front end (:mod:`repro.serve.frontend`) serves one machine
and a fleet of them alike.  Start a server with ``python -m repro.serve``
(``--shards N`` for a fleet of N machines behind the router of
:mod:`repro.serve.federation`); drive it with
``python -m repro.serve.loadgen`` (``--fault-spec`` for chaos).
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.arbiter import Lease, LeaseLedger, NodeArbiter
from repro.serve.client import ServiceClient
from repro.serve.faults import FaultKind, FaultPlan, WorkerCrashed
from repro.serve.metrics import LatencyReservoir, ServiceMetrics, percentile
from repro.serve.protocol import (
    AdmissionRejected,
    JobRecord,
    JobRequest,
    JobState,
    LeaseError,
    ProtocolError,
)
from repro.serve.server import SchedulingService

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "FaultKind",
    "FaultPlan",
    "JobRecord",
    "JobRequest",
    "JobState",
    "LatencyReservoir",
    "Lease",
    "LeaseError",
    "LeaseLedger",
    "NodeArbiter",
    "ProtocolError",
    "SchedulingService",
    "ServiceClient",
    "ServiceMetrics",
    "WorkerCrashed",
    "percentile",
]
