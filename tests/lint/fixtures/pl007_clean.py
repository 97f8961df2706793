"""PL007 negative/suppressed cases."""

import json
import os

from repro.core.atomic import atomic_write_text, atomic_writer


def write_checkpoint(path, payload) -> None:
    # The sanctioned pattern: temp file committed by rename.
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def save_cache_entry(path, manifest: str) -> None:
    atomic_write_text(path, manifest)


def divert_records(quarantine_path, rows) -> None:
    with atomic_writer(quarantine_path, "w") as fh:
        fh.writelines(rows)


def read_cache_entry(path) -> str:
    # Reads are out of scope.
    return path.read_text()


def load_cached_payload(path) -> bytes:
    with path.open("rb") as fh:
        return fh.read()


def append_cache_event(log_path, line: str) -> None:
    # Append-only event logs are incremental by design, not rename-committed.
    with log_path.open("a") as fh:
        fh.write(line)


def save_result(path, blob: str) -> None:
    # No cache/checkpoint/quarantine role: plain result output.
    path.write_text(blob)


def justified_direct_write(cache_path, blob: str) -> None:
    cache_path.write_text(blob)  # poiagg: disable=PL007
