"""Persistent content-addressed cache of experiment runs.

A campaign is a set of independent (benchmark, scheduler, seed) runs, each
fully determined by its configuration: the simulator draws every random
number from seed-derived Philox substreams (:mod:`repro.sim.rng`), so the
same configuration always produces the same :class:`AppRunResult`.  That
makes runs content-addressable — this module hashes the *complete* run
configuration (topology structure, scheduler name + parameters, workload,
noise parameters, timesteps, seed, and a schema version) into a key and
stores the serialised result under it, one JSON file per run.

Guarantees:

* **losslessness** — floats round-trip through JSON via Python's
  shortest-repr encoding, so a decoded run is bit-identical to the
  original (NaN entries in per-node arrays included);
* **atomicity** — entries go through :func:`repro.ioutil.atomic_write`
  (tmp file + fsync + rename), so a crash mid-write never leaves a
  readable half-entry;
* **integrity** — every entry is framed as a header line carrying the
  SHA-256 of the exact payload bytes that follow; a read verifies it, so
  a flipped or truncated byte *anywhere* in the file is detected;
* **self-healing via quarantine** — a corrupt, mismatched or
  stale-schema entry is moved aside into ``<root>/quarantine/`` (kept
  for forensics, never served) and the run is transparently recomputed
  rather than crashing or returning garbage.

Bump :data:`SCHEMA_VERSION` whenever the simulator's observable behaviour
or the serialisation format changes; old entries then miss and are
recomputed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.counters.metrics import TaskloopCounters
from repro.interference.noise import NoiseParams
from repro.ioutil import atomic_write
from repro.runtime.overhead import OverheadLedger
from repro.runtime.results import AppRunResult, TaskloopResult
from repro.topology.machine import MachineTopology

__all__ = [
    "SCHEMA_VERSION",
    "QUARANTINE_DIR",
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "topology_fingerprint",
    "run_key",
    "encode_run",
    "decode_run",
    "run_to_json",
]

#: Bump when simulator behaviour or the entry format changes; every cached
#: entry carrying an older version is invalidated on read.  v2: framed
#: header + SHA-256 payload checksum (crash-safe durability PR).
SCHEMA_VERSION = 2


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "runs"


# ----------------------------------------------------------------------
# content hashing
# ----------------------------------------------------------------------
#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` with the
#: encoder built once (``dumps`` builds a new one per call for these options)
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def topology_fingerprint(topology: MachineTopology) -> str:
    """Hash of everything about a machine that can influence a run.

    Two topologies with the same fingerprint are structurally identical:
    same component tree, core speeds, cache sizes, memory sizes and
    bandwidths.  (The machine *name* is deliberately excluded — renaming a
    preset must not invalidate its runs.)
    """
    payload = {
        "sockets": [dataclasses.asdict(s) for s in topology.sockets],
        "nodes": [dataclasses.asdict(n) for n in topology.nodes],
        "ccds": [dataclasses.asdict(c) for c in topology.ccds],
        "cores": [dataclasses.asdict(c) for c in topology.cores],
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def run_key(
    *,
    benchmark: str,
    scheduler: str,
    seed: int,
    timesteps: int | None,
    noise: NoiseParams | None,
    topology: MachineTopology | str,
    scheduler_params: Mapping[str, Any] | None = None,
) -> str:
    """Content hash addressing one (benchmark, scheduler, seed) run.

    The key is the SHA-256 of the canonical JSON of the payload
    ``{schema, benchmark, scheduler, scheduler_params, seed, timesteps,
    noise, topology}``.  Everything but the seed is fixed per cell, so its
    text comes from a memoised frame (:func:`_key_frame`) and only the
    seed is encoded per call.

    ``topology`` accepts a pre-computed fingerprint string so callers
    hashing many runs on one machine pay for :func:`topology_fingerprint`
    once.
    """
    topo_fp = (
        topology if isinstance(topology, str) else topology_fingerprint(topology)
    )
    prefix, suffix = _key_frame(
        benchmark, scheduler, _canonical(dict(scheduler_params or {})),
        timesteps, noise, repr(noise), topo_fp,
    )
    text = prefix + _canonical(seed) + suffix
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1024, typed=True)
def _key_frame(
    benchmark: str,
    scheduler: str,
    params_text: str,
    timesteps: int | None,
    noise: NoiseParams | None,
    noise_repr: str,
    topology_fp: str,
) -> tuple[str, str]:
    """The canonical key text of one cell around its seed: ``(prefix, suffix)``.

    Canonical JSON sorts keys, so the seed sits between ``schema`` and
    ``timesteps``, and JSON text composes: a value encodes the same alone
    as inside the payload.  The frame is checked against the encoder's
    text of the full payload once, when it is built.

    The memo keys on text where ``==`` is too coarse: values
    that compare equal can encode differently (``1``, ``1.0``, ``True``).
    ``typed`` separates them at the top level (``timesteps``),
    ``params_text`` inside the parameters and ``noise_repr`` inside the
    noise fields.
    """
    noise_dict = dataclasses.asdict(noise) if noise is not None else None
    prefix = (
        f'{{"benchmark":{_canonical(benchmark)},"noise":{_canonical(noise_dict)},'
        f'"scheduler":{_canonical(scheduler)},"scheduler_params":{params_text},'
        f'"schema":{_canonical(SCHEMA_VERSION)},"seed":'
    )
    suffix = (
        f',"timesteps":{_canonical(timesteps)},"topology":{_canonical(topology_fp)}}}'
    )
    full = _canonical({
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark,
        "scheduler": scheduler,
        "scheduler_params": json.loads(params_text),
        "seed": 0,
        "timesteps": timesteps,
        "noise": noise_dict,
        "topology": topology_fp,
    })
    if prefix + "0" + suffix != full:
        raise RuntimeError(
            f"run-key frame disagrees with the canonical payload text: {full}"
        )
    return prefix, suffix


# ----------------------------------------------------------------------
# run (de)serialisation
# ----------------------------------------------------------------------
def _encode_counters(c: TaskloopCounters | None) -> dict[str, Any] | None:
    if c is None:
        return None
    return {
        "uid": c.uid,
        "elapsed": c.elapsed,
        "sat_time_integral": c.sat_time_integral,
        "peak_saturation": c.peak_saturation,
        "bytes_total": c.bytes_total,
        "bytes_remote": c.bytes_remote,
        "busy_time": c.busy_time,
        "idle_time": c.idle_time,
    }


def _decode_counters(d: dict[str, Any] | None) -> TaskloopCounters | None:
    return None if d is None else TaskloopCounters(**d)


_LEDGER_FIELDS = (
    "task_create",
    "dequeue",
    "steal_local",
    "steal_remote",
    "steal_fail",
    "barrier",
    "fork",
    "select",
    "ptt_update",
)


def _encode_ledger(ledger: OverheadLedger) -> dict[str, Any]:
    d: dict[str, Any] = {name: getattr(ledger, name) for name in _LEDGER_FIELDS}
    d["counts"] = dict(ledger.counts)
    return d


def _decode_ledger(d: dict[str, Any]) -> OverheadLedger:
    return OverheadLedger(**{**d, "counts": dict(d["counts"])})


def _encode_taskloop(r: TaskloopResult) -> dict[str, Any]:
    return {
        "uid": r.uid,
        "name": r.name,
        "elapsed": r.elapsed,
        "num_threads": r.num_threads,
        "node_mask_bits": r.node_mask_bits,
        "steal_policy": r.steal_policy,
        "overhead": _encode_ledger(r.overhead),
        "node_perf": [float(x) for x in r.node_perf],
        "node_busy": [float(x) for x in r.node_busy],
        "tasks_executed": r.tasks_executed,
        "steals_local": r.steals_local,
        "steals_remote": r.steals_remote,
        "counters": _encode_counters(r.counters),
    }


def _decode_taskloop(d: dict[str, Any]) -> TaskloopResult:
    return TaskloopResult(
        uid=d["uid"],
        name=d["name"],
        elapsed=d["elapsed"],
        num_threads=d["num_threads"],
        node_mask_bits=d["node_mask_bits"],
        steal_policy=d["steal_policy"],
        overhead=_decode_ledger(d["overhead"]),
        node_perf=np.asarray(d["node_perf"], dtype=np.float64),
        node_busy=np.asarray(d["node_busy"], dtype=np.float64),
        tasks_executed=d["tasks_executed"],
        steals_local=d["steals_local"],
        steals_remote=d["steals_remote"],
        counters=_decode_counters(d["counters"]),
    )


def encode_run(result: AppRunResult) -> dict[str, Any]:
    """JSON-ready dict capturing an :class:`AppRunResult` losslessly."""
    return {
        "app_name": result.app_name,
        "scheduler": result.scheduler,
        "seed": result.seed,
        "total_time": result.total_time,
        "taskloops": [_encode_taskloop(r) for r in result.taskloops],
    }


def decode_run(data: dict[str, Any]) -> AppRunResult:
    """Inverse of :func:`encode_run`."""
    return AppRunResult(
        app_name=data["app_name"],
        scheduler=data["scheduler"],
        seed=data["seed"],
        total_time=data["total_time"],
        taskloops=[_decode_taskloop(d) for d in data["taskloops"]],
    )


def run_to_json(result: AppRunResult) -> str:
    """Canonical JSON text of a run — equal strings mean identical runs.

    This is the byte-identity the determinism tests compare: NaN entries
    serialise to the literal ``NaN`` token, so two runs differing only in
    NaN positions still compare correctly as text.
    """
    return _canonical(encode_run(result))


# ----------------------------------------------------------------------
# the on-disk store
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0
    quarantined: int = 0


#: Subdirectory (under the cache root) holding entries that failed
#: verification.  Longer than two characters, so :meth:`ResultCache.keys`'s
#: ``??/*.json`` glob can never pick quarantined files back up.
QUARANTINE_DIR = "quarantine"


def _encode_entry(key: str, result: AppRunResult) -> bytes:
    """Frame one entry: header line + exact payload bytes it checksums.

    The header's ``sha256`` covers the *raw payload bytes*, not their
    parsed meaning — that is what makes single-byte corruption at any
    offset detectable (a semantic checksum would forgive JSON-equivalent
    mutations and, worse, cost a re-encode per read).
    """
    payload = run_to_json(result).encode("utf-8")
    header = _canonical(
        {
            "schema": SCHEMA_VERSION,
            "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
    ).encode("utf-8")
    return header + b"\n" + payload


#: read size of :func:`_read_file`: above most entries (a 1-timestep
#: matmul run encodes to ~1.3 KB, a 2-timestep LULESH run to ~11 KB)
_READ_BYTES = 1 << 16


def _read_file(path: str) -> bytes:
    """The bytes of the file at ``path``: one ``open``, ``read`` and
    ``close`` for any entry shorter than :data:`_READ_BYTES`.

    Every syscall releases the interpreter lock, and taking it back can
    wait behind the service's other threads, so this skips what
    :meth:`pathlib.Path.read_bytes` adds (``fstat``, ``lseek``, a second
    ``read`` to find the end).  A read of a regular file comes back short
    only at its end, so only a full chunk reads on.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, _READ_BYTES)]
        while len(chunks[-1]) == _READ_BYTES:
            chunks.append(os.read(fd, _READ_BYTES))
    finally:
        os.close(fd)
    return b"".join(chunks)


def _decode_entry(key: str, raw: bytes) -> AppRunResult:
    """Verify and decode one framed entry; raises ``ValueError``/
    ``KeyError``/``TypeError`` on any damage (all roads lead to
    quarantine)."""
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError("cache entry has no header/payload frame")
    header = json.loads(raw[:newline])
    if header["schema"] != SCHEMA_VERSION:
        raise ValueError("stale cache entry schema")
    if header["key"] != key:
        raise ValueError("cache entry stored under the wrong key")
    payload = raw[newline + 1 :]
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise ValueError("cache entry payload fails its checksum")
    return decode_run(json.loads(payload))


class ResultCache:
    """One-file-per-run store addressed by :func:`run_key` hashes.

    Entries live two directory levels deep (``ab/abcdef....json``) to keep
    directories small at paper scale.  All operations are safe against
    concurrent writers of the *same* key: both write identical content and
    ``os.replace`` is atomic.

    ``fsync=False`` (tests only) skips the durability flush on writes;
    framing, checksums and quarantine behave identically.
    """

    def __init__(self, root: str | Path, *, fsync: bool = True):
        self.root = Path(root)
        self.stats = CacheStats()
        self._fsync = fsync

    # -- paths ----------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return Path(self._entry_path(key))

    def _entry_path(self, key: str) -> str:
        return f"{self.root}/{key[:2]}/{key}.json"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    # -- operations -----------------------------------------------------
    def get(self, key: str) -> AppRunResult | None:
        """The cached run under ``key``, or ``None`` on miss.

        An entry that fails verification — torn frame, checksum mismatch,
        wrong key, stale schema — counts as a miss and is *quarantined*
        (moved under :attr:`quarantine_root`), never served; the caller
        recomputes and the slot is free for the fresh entry.
        """
        path = self._entry_path(key)
        try:
            raw = _read_file(path)
        except OSError:  # absent, or unreadable (e.g. a directory): no damage
            self.stats.misses += 1
            return None
        try:
            result = _decode_entry(key, raw)
        except (ValueError, KeyError, TypeError):
            self._quarantine(Path(path))
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: AppRunResult) -> Path:
        """Atomically and durably persist ``result`` under ``key``."""
        path = self.path_for(key)
        atomic_write(path, _encode_entry(key, result), fsync=self._fsync)
        self.stats.stores += 1
        return path

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside (kept for forensics, definitely unserved).

        Falls back to deletion if the move itself fails — a bad entry must
        never remain at its addressable path.
        """
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_root / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_root / f"{path.name}.{suffix}"
        try:
            os.replace(path, target)
            self.stats.quarantined += 1
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.stats.invalidated += 1

    def quarantined_files(self) -> list[Path]:
        """Every quarantined entry currently on disk (sorted)."""
        if not self.quarantine_root.is_dir():
            return []
        return sorted(p for p in self.quarantine_root.iterdir() if p.is_file())

    # -- maintenance ----------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys of every entry currently on disk."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed
