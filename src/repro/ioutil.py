"""Durable filesystem writes, shared by every persistence path.

Everything the repo persists — run-cache entries, campaign summaries,
metrics snapshots, Chrome traces — goes through :func:`atomic_write`:
the payload is written to a temporary file *in the target directory*,
flushed and ``fsync``'d, then ``os.replace``'d over the destination, and
the directory entry itself is fsync'd.  The guarantee is all-or-nothing
at every crash point: a reader either sees the complete previous version
or the complete new version, never a torn intermediate.

The static analyzer's IO001 rule enforces the routing: inside ``exp/``
and ``serve/`` a direct ``open(..., "w")`` / ``Path.write_text`` is a
finding, with no module exempt — the bare idiom is exactly the
torn-write bug this module removes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["atomic_write", "atomic_write_json", "fsync_dir"]


def fsync_dir(path: str | Path) -> None:
    """Flush directory entry metadata (a rename is durable only after
    the *directory* is synced).  Best-effort: silently skipped where
    directories cannot be opened (e.g. some network filesystems)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: str | Path,
    data: str | bytes,
    *,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> Path:
    """Write ``data`` to ``path`` atomically (tmp file + fsync + rename).

    The temporary file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary; parent directories
    are created as needed.  ``fsync=False`` skips the flush-to-disk calls
    (still atomic against concurrent readers, no longer against power
    loss) — tests use it to keep tiny-file churn fast.
    """
    path = Path(path)
    payload = data.encode(encoding) if isinstance(data, str) else data
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(path.parent)
    return path


def atomic_write_json(
    path: str | Path,
    payload: Any,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
    fsync: bool = True,
) -> Path:
    """Serialise ``payload`` as JSON and :func:`atomic_write` it.

    The common shape of every human-readable artefact (campaign
    summaries, metrics snapshots): indented, key-sorted, newline-
    terminated.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write(path, text, fsync=fsync)
