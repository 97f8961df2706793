"""Compliant PL014 patterns: fsync-then-rename, payload-first/
manifest-last, durable WAL appends, delegated atomic helpers.

Lints as repro.ingest.fixture.
"""

import json
import os

from repro.core.atomic import atomic_write_bytes, atomic_write_text


def write_checkpoint(path, payload):
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_checkpoint_delegated(path, payload):
    return atomic_write_text(path, json.dumps(payload))


def write_cache_entry(entry, payload_bytes, manifest):
    atomic_write_bytes(entry / "payload.npz", payload_bytes)
    atomic_write_text(entry / "manifest.json", json.dumps(manifest))


def append_wal(wal_handle, record):
    wal_handle.write(json.dumps(record) + "\n")
    wal_handle.flush()
    os.fsync(wal_handle.fileno())
