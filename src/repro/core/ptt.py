"""The Performance Trace Table (PTT).

The PTT links taskloop configurations to measured execution times and
per-node performance.  ILAN consults it during the exploration stage to
pick the next configuration (Algorithm 1) and, once exploration finishes,
to fix the optimal configuration for the rest of the application
(Section 3.1).

One :class:`TaskloopPTT` exists per taskloop callsite; running statistics
use Welford's algorithm so means and variances are numerically stable over
hundreds of encounters.  Per-node throughput is an exponential moving
average so the node ranking adapts if dynamic asymmetry shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PTT_WIRE_VERSION", "ExecStats", "TaskloopPTT", "PerformanceTraceTable"]

ConfigKey = tuple[int, int, str]  # (num_threads, node_mask_bits, steal_policy)

#: Schema version of the PTT wire documents produced by
#: :meth:`TaskloopPTT.to_wire`; importers refuse documents from a
#: different schema instead of guessing at their fields.
PTT_WIRE_VERSION = 1


@dataclass
class ExecStats:
    """Running execution-time statistics of one configuration."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min_time: float = float("inf")

    def add(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError(f"execution time cannot be negative: {value}")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.min_time = min(self.min_time, value)

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return self.variance**0.5


@dataclass
class TaskloopPTT:
    """PTT rows for one taskloop callsite."""

    num_nodes: int
    entries: dict[ConfigKey, ExecStats] = field(default_factory=dict)
    node_perf: np.ndarray | None = None
    executions: int = 0
    node_perf_alpha: float = 0.5
    #: bumped by :meth:`invalidate`; lets tests and diagnostics tell a
    #: re-learned entry from a resurrected one
    generation: int = 0

    def __post_init__(self) -> None:
        if self.node_perf is None:
            self.node_perf = np.full(self.num_nodes, np.nan)

    # ------------------------------------------------------------------
    def record(self, key: ConfigKey, elapsed: float, node_perf: np.ndarray | None = None) -> None:
        """Record one execution under configuration ``key``."""
        stats = self.entries.get(key)
        if stats is None:
            stats = ExecStats()
            self.entries[key] = stats
        stats.add(elapsed)
        self.executions += 1
        if node_perf is not None:
            self._update_node_perf(np.asarray(node_perf, dtype=np.float64))

    def _update_node_perf(self, obs: np.ndarray) -> None:
        if obs.shape != (self.num_nodes,):
            raise ConfigurationError(
                f"node_perf must have {self.num_nodes} entries, got {obs.shape}"
            )
        # the IEEE double operations of a masked array update, node by
        # node on Python floats (array calls on a few elements cost more
        # than the loop): a NaN observation (``o != o``) leaves its node
        # alone, a node's first real one is taken as is and later ones
        # blend in; then one write-back
        a = self.node_perf_alpha
        keep = 1.0 - a
        perf = self.node_perf.tolist()
        for i, o in enumerate(obs.tolist()):
            if o == o:
                c = perf[i]
                perf[i] = o if c != c else keep * c + a * o
        self.node_perf[:] = perf

    # ------------------------------------------------------------------
    def best_time_per_thread_count(self, policy: str | None = "strict") -> dict[int, float]:
        """Fastest mean time for each explored thread count.

        Exploration runs strictly intra-node, so Algorithm 1 compares
        ``strict`` entries by default; pass ``None`` to consider all.
        """
        out: dict[int, float] = {}
        for (threads, _mask, pol), stats in self.entries.items():
            if policy is not None and pol != policy:
                continue
            if stats.count == 0:
                continue
            cur = out.get(threads)
            if cur is None or stats.mean < cur:
                out[threads] = stats.mean
        return out

    def mean_time(self, key: ConfigKey) -> float | None:
        stats = self.entries.get(key)
        return stats.mean if stats is not None and stats.count else None

    def invalidate(self) -> None:
        """Drop every timing entry; the machine they describe is gone.

        Called by drift-triggered re-exploration (see
        :meth:`repro.core.moldability.MoldabilityController.note_settled_time`).
        The node-performance EMA is deliberately *kept*: it already adapts
        exponentially and seeds the re-exploration's node choice, whereas
        stale timing means would anchor Algorithm 1 to dead data.
        """
        self.entries.clear()
        self.generation += 1

    def fastest_node(self) -> int:
        """Node with the best observed throughput (falls back to node 0)."""
        perf = self.node_perf
        if np.all(np.isnan(perf)):
            return 0
        return int(np.nanargmax(perf))

    # ------------------------------------------------------------------
    # wire serialization (federation warm-state migration)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """Versioned JSON-safe document of this table's learned state.

        Everything a new owner needs to resume warm: the timing entries
        (Welford triples, so merged statistics stay exact), the per-node
        throughput EMA (``NaN`` encoded as ``None`` — JSON has no NaN),
        and the generation counter that guards against resurrecting
        entries a later invalidation already declared dead.
        """
        return {
            "version": PTT_WIRE_VERSION,
            "num_nodes": self.num_nodes,
            "generation": self.generation,
            "executions": self.executions,
            "node_perf_alpha": self.node_perf_alpha,
            "node_perf": [
                None if np.isnan(v) else float(v) for v in self.node_perf
            ],
            "entries": [
                {
                    "threads": threads,
                    "mask_bits": mask_bits,
                    "policy": policy,
                    "count": stats.count,
                    "mean": stats.mean,
                    "m2": stats.m2,
                    "min_time": stats.min_time,
                }
                for (threads, mask_bits, policy), stats in sorted(
                    self.entries.items()
                )
                if stats.count > 0
            ],
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "TaskloopPTT":
        """Reconstruct a table from :meth:`to_wire` output.

        Raises :class:`~repro.errors.ConfigurationError` on an unknown
        schema version or a malformed document; never guesses.
        """
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"PTT wire document must be an object, got {type(doc).__name__}"
            )
        if doc.get("version") != PTT_WIRE_VERSION:
            raise ConfigurationError(
                f"unsupported PTT wire version {doc.get('version')!r} "
                f"(this build speaks {PTT_WIRE_VERSION})"
            )
        num_nodes = doc.get("num_nodes")
        if not isinstance(num_nodes, int) or num_nodes < 1:
            raise ConfigurationError(
                f"PTT wire document needs a positive 'num_nodes', got {num_nodes!r}"
            )
        perf_list = doc.get("node_perf")
        if not isinstance(perf_list, list) or len(perf_list) != num_nodes:
            raise ConfigurationError(
                f"PTT wire 'node_perf' must list {num_nodes} values"
            )
        table = cls(
            num_nodes=num_nodes,
            executions=int(doc.get("executions", 0)),
            node_perf_alpha=float(doc.get("node_perf_alpha", 0.5)),
            generation=int(doc.get("generation", 0)),
        )
        table.node_perf = np.array(
            [np.nan if v is None else float(v) for v in perf_list],
            dtype=np.float64,
        )
        for entry in doc.get("entries", ()):
            try:
                key = (int(entry["threads"]), int(entry["mask_bits"]),
                       str(entry["policy"]))
                stats = ExecStats(
                    count=int(entry["count"]),
                    mean=float(entry["mean"]),
                    m2=float(entry["m2"]),
                    min_time=float(entry["min_time"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed PTT wire entry {entry!r}: {exc}"
                ) from exc
            if stats.count < 1:
                raise ConfigurationError(
                    f"PTT wire entry {key} carries no observations"
                )
            table.entries[key] = stats
        return table

    def import_wire(self, doc: dict) -> bool:
        """Adopt the state of a wire document into this table.

        The *generation guard*: a document older than this table's
        current generation describes entries an invalidation already
        declared dead — importing it would resurrect stale timings on a
        respawned shard — so it is refused (returns ``False``, table
        untouched).  A document at or above the current generation
        replaces the entries, EMA and counters wholesale and returns
        ``True``.
        """
        incoming = TaskloopPTT.from_wire(doc)
        if incoming.num_nodes != self.num_nodes:
            raise ConfigurationError(
                f"PTT wire document describes {incoming.num_nodes} node(s), "
                f"this table has {self.num_nodes}"
            )
        if incoming.generation < self.generation:
            return False
        self.entries = incoming.entries
        self.node_perf = incoming.node_perf
        self.executions = incoming.executions
        self.node_perf_alpha = incoming.node_perf_alpha
        self.generation = incoming.generation
        return True


class PerformanceTraceTable:
    """All per-taskloop PTTs of one scheduler instance."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self._tables: dict[str, TaskloopPTT] = {}

    def table(self, uid: str) -> TaskloopPTT:
        """PTT for taskloop ``uid``, created on first use."""
        t = self._tables.get(uid)
        if t is None:
            t = TaskloopPTT(num_nodes=self.num_nodes)
            self._tables[uid] = t
        return t

    def __contains__(self, uid: str) -> bool:
        return uid in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def uids(self) -> list[str]:
        return sorted(self._tables)

    def clear(self) -> None:
        self._tables.clear()

    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """Every callsite's table as one versioned document."""
        return {
            "version": PTT_WIRE_VERSION,
            "num_nodes": self.num_nodes,
            "tables": {uid: self._tables[uid].to_wire() for uid in self.uids()},
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "PerformanceTraceTable":
        if not isinstance(doc, dict) or doc.get("version") != PTT_WIRE_VERSION:
            raise ConfigurationError(
                f"unsupported PTT wire version "
                f"{doc.get('version') if isinstance(doc, dict) else doc!r}"
            )
        ptt = cls(int(doc["num_nodes"]))
        for uid, table_doc in (doc.get("tables") or {}).items():
            table = TaskloopPTT.from_wire(table_doc)
            if table.num_nodes != ptt.num_nodes:
                raise ConfigurationError(
                    f"table {uid!r} describes {table.num_nodes} node(s), "
                    f"the registry has {ptt.num_nodes}"
                )
            ptt._tables[str(uid)] = table
        return ptt
