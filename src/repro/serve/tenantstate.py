"""Per-tenant warm scheduling state: checkpoints that survive migration.

A :class:`~repro.serve.server.SchedulingService` learns two things about
a tenant from every completed job: which NUMA node ran it fastest (the
seed of the next lease grant) and the full performance-trace history of
its taskloops (the :class:`~repro.core.ptt.TaskloopPTT` rebuilt from the
run's measurements).  PR 7 kept that knowledge trapped on the shard that
earned it — a tenant rehomed by a crash or a rebalance re-bootstrapped
from scratch.  This module makes the knowledge portable:

* :class:`TenantCheckpoint` — one (tenant, benchmark) pair's warm state
  as a **versioned wire document**: the fastest-node hint, the
  reconstructed PTT (:meth:`~repro.core.ptt.TaskloopPTT.to_wire`, which
  carries the node-perf EMA and the generation counter), a moldability
  phase summary, and a monotonically increasing checkpoint generation;
* :class:`TenantStateStore` — the shard-side registry: checkpoints are
  cut after every completed job, exported for migration, imported at
  adoption time, and guarded so a *stale* document (an older generation
  than what the store already holds — e.g. replayed at a resurrected
  shard) is refused instead of resurrecting dead state.

The store also keeps a *dirty set* so the federation router can pull
only the checkpoints that changed since its last heartbeat poll
(:meth:`TenantStateStore.drain_dirty`), which bounds the per-heartbeat
migration traffic to what actually happened.

Everything here is pure bookkeeping over data the run already produced —
no clocks, no randomness — so seeded federation runs that migrate state
replay byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ptt import TaskloopPTT
from repro.errors import ConfigurationError, ServeError
from repro.runtime.results import AppRunResult

__all__ = ["TENANT_STATE_VERSION", "TenantCheckpoint", "TenantStateStore"]

#: Schema version of the tenant-state wire envelope.
TENANT_STATE_VERSION = 1


@dataclass
class TenantCheckpoint:
    """Warm state of one (tenant, benchmark) pair on one shard."""

    tenant: str
    benchmark: str
    #: Monotonically increasing per-(tenant, benchmark) checkpoint counter;
    #: the import-side staleness guard compares these.
    generation: int
    jobs_completed: int
    fastest_node: int
    #: Moldability lifecycle summary: ``"settled"`` once at least one job
    #: completed under this state (its exploration ran to completion
    #: inside the job), ``"bootstrap"`` otherwise.
    phase: str
    ptt: TaskloopPTT

    def to_wire(self) -> dict:
        return {
            "version": TENANT_STATE_VERSION,
            "tenant": self.tenant,
            "benchmark": self.benchmark,
            "generation": self.generation,
            "jobs_completed": self.jobs_completed,
            "fastest_node": self.fastest_node,
            "phase": self.phase,
            "ptt": self.ptt.to_wire(),
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "TenantCheckpoint":
        if not isinstance(doc, dict):
            raise ServeError(
                f"tenant-state document must be an object, got {type(doc).__name__}"
            )
        if doc.get("version") != TENANT_STATE_VERSION:
            raise ServeError(
                f"unsupported tenant-state version {doc.get('version')!r} "
                f"(this build speaks {TENANT_STATE_VERSION})"
            )
        try:
            return cls(
                tenant=str(doc["tenant"]),
                benchmark=str(doc["benchmark"]),
                generation=int(doc["generation"]),
                jobs_completed=int(doc["jobs_completed"]),
                fastest_node=int(doc["fastest_node"]),
                phase=str(doc["phase"]),
                ptt=TaskloopPTT.from_wire(doc["ptt"]),
            )
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise ServeError(f"malformed tenant-state document: {exc}") from exc


class TenantStateStore:
    """Shard-side registry of every tenant's warm scheduling state."""

    def __init__(self) -> None:
        self._checkpoints: dict[tuple[str, str], TenantCheckpoint] = {}
        self._dirty: set[tuple[str, str]] = set()
        #: Imports refused by the generation guard (stale documents).
        self.stale_imports = 0
        #: Documents successfully adopted from another shard.
        self.imported = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._checkpoints)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._checkpoints

    def get(self, tenant: str, benchmark: str) -> TenantCheckpoint | None:
        return self._checkpoints.get((tenant, benchmark))

    def hint(self, tenant: str, benchmark: str) -> int | None:
        """The tenant's fastest-node lease seed, if any state is warm."""
        ckpt = self._checkpoints.get((tenant, benchmark))
        return ckpt.fastest_node if ckpt is not None else None

    def tenants(self) -> list[str]:
        return sorted({t for t, _ in self._checkpoints})

    # ------------------------------------------------------------------
    def checkpoint(
        self,
        tenant: str,
        benchmark: str,
        *,
        fastest_node: int,
        runs: list[AppRunResult],
        num_nodes: int,
    ) -> TenantCheckpoint:
        """Cut/extend the checkpoint after one completed job.

        The job's taskloop measurements are folded into the pair's
        reconstructed PTT — configuration timings into the Welford
        entries, per-node throughput into the EMA — and the generation
        counter advances, so every export after this call carries the
        new state and supersedes every document cut before it.
        """
        key = (tenant, benchmark)
        ckpt = self._checkpoints.get(key)
        if ckpt is None:
            ckpt = TenantCheckpoint(
                tenant=tenant,
                benchmark=benchmark,
                generation=0,
                jobs_completed=0,
                fastest_node=fastest_node,
                phase="bootstrap",
                ptt=TaskloopPTT(num_nodes=num_nodes),
            )
            self._checkpoints[key] = ckpt
        for run in runs:
            for tl in run.taskloops:
                ckpt.ptt.record(
                    (tl.num_threads, tl.node_mask_bits, tl.steal_policy),
                    tl.elapsed,
                    tl.node_perf,
                )
        ckpt.fastest_node = fastest_node
        ckpt.jobs_completed += 1
        ckpt.generation += 1
        ckpt.phase = "settled"
        self._dirty.add(key)
        return ckpt

    # ------------------------------------------------------------------
    def drain_dirty(self) -> list[dict]:
        """Checkpoints changed since the last drain (heartbeat delta)."""
        docs = [
            self._checkpoints[key].to_wire() for key in sorted(self._dirty)
        ]
        self._dirty.clear()
        return docs

    # ------------------------------------------------------------------
    def import_doc(self, doc: dict) -> bool:
        """Adopt one migrated checkpoint; the generation guard applies.

        Returns ``True`` when the document was adopted, ``False`` when it
        was stale — at or below a generation this store already holds for
        the pair (a resurrected or replayed document must never overwrite
        fresher local knowledge).  Malformed documents raise
        :class:`~repro.errors.ServeError`.
        """
        ckpt = TenantCheckpoint.from_wire(doc)
        key = (ckpt.tenant, ckpt.benchmark)
        existing = self._checkpoints.get(key)
        if existing is not None and ckpt.generation <= existing.generation:
            self.stale_imports += 1
            return False
        self._checkpoints[key] = ckpt
        self._dirty.add(key)
        self.imported += 1
        return True

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-able summary for the metrics snapshot."""
        return {
            "pairs": len(self._checkpoints),
            "tenants": self.tenants(),
            "imported": self.imported,
            "stale_imports": self.stale_imports,
            "generations": {
                f"{tenant}/{benchmark}": ckpt.generation
                for (tenant, benchmark), ckpt in sorted(self._checkpoints.items())
            },
        }
