"""Atomic file writes and content checksums for every durable artifact.

Every durable artifact in this repository — POI CSVs and their sidecars,
dataset cache entries, quarantine files, ingest reports — goes through
the temp-file + :func:`os.replace` discipline established by the
experiment checkpoints: the final path either holds the complete old
content or the complete new content, never a torn file.  Lint rule PL007
enforces that cache/checkpoint/quarantine writes use this module (or
spell out the same temp + replace sequence locally).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.core.vfs import VFSFile, get_vfs

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "file_sha256",
]

#: Suffix appended to the destination name while the write is in flight.
#: A crash leaves only ``<name>.tmp`` behind, which readers never open.
_TMP_SUFFIX = ".tmp"


@contextmanager
def atomic_writer(path: "str | Path", mode: str = "w") -> Iterator[VFSFile]:
    """Open ``<path>.tmp`` for writing; rename over *path* on clean exit.

    On an exception the temp file is removed and *path* is untouched, so
    a crash mid-write can never leave a half-written artifact under the
    final name.  ``mode`` must be a write mode (``"w"``/``"wb"``).

    Every filesystem side effect routes through the installed
    :mod:`repro.core.vfs` layer, so the fault fabric can inject disk
    errors and enumerate each commit step (mkdir, open, writes, fsync,
    replace) for the crash-point sweeps.
    """
    path = Path(path)
    vfs = get_vfs()
    vfs.mkdir(path.parent, parents=True, exist_ok=True)
    tmp = path.with_name(path.name + _TMP_SUFFIX)
    handle = vfs.open(tmp, mode)
    try:
        yield handle
    except BaseException:
        handle.close()
        vfs.unlink(tmp, missing_ok=True)
        raise
    else:
        vfs.fsync(handle)
        handle.close()
        vfs.replace(tmp, path)  # atomic on POSIX: readers never see a torn file


def atomic_write_text(path: "str | Path", text: str) -> Path:
    """Atomically replace *path* with *text* (UTF-8)."""
    path = Path(path)
    with atomic_writer(path, "w") as fh:
        fh.write(text)
    return path


def atomic_write_bytes(path: "str | Path", data: bytes) -> Path:
    """Atomically replace *path* with *data*."""
    path = Path(path)
    with atomic_writer(path, "wb") as fh:
        fh.write(data)
    return path


def file_sha256(path: "str | Path", chunk_size: int = 1 << 20) -> str:
    """Streaming SHA-256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(chunk_size):
            digest.update(chunk)
    return digest.hexdigest()
