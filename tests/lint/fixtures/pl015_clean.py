"""Compliant PL015 patterns: durable I/O routed through the injectable
VFS or the atomic helpers built on it, and non-durable os calls that
the rule must leave alone.

Lints as repro.ingest.fixture.
"""

import json
import os

from repro.core.atomic import atomic_write_text
from repro.core.vfs import get_vfs


def write_checkpoint(path, payload):
    return atomic_write_text(path, json.dumps(payload))


def append_record(path, record):
    vfs = get_vfs()
    with vfs.open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")
        vfs.fsync(handle)


def publish(tmp, path):
    get_vfs().replace(tmp, path)


def read_metadata(path):
    # Non-durable os calls stay unflagged: nothing here commits bytes.
    return os.stat(path).st_size if os.path.exists(path) else None


def read_payload(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()
