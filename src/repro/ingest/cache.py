"""Content-checksummed, atomic, resume-safe dataset cache.

Parsing and validating a large extract is much slower than loading the
already-validated arrays, so :func:`~repro.poi.io.load_database` and
:func:`~repro.poi.osm.load_osm_xml` can route through this cache.  The
design mirrors the experiment checkpoint discipline:

* **keyed by content** — an entry's directory name embeds the SHA-256 of
  the *source* file, so editing the source automatically invalidates the
  entry (the old one is simply never looked up again);
* **checksummed payload** — the manifest records the payload's own
  digest, verified on every read; a corrupted entry raises
  :class:`~repro.core.errors.CacheIntegrityError` and is rebuilt from
  source rather than silently served;
* **atomic + resume-safe** — the payload is written first, the manifest
  last, both via temp-file + rename.  A crash at any point leaves either
  no manifest (entry invisible: the next load rebuilds it) or a complete
  entry; readers can never observe a torn cache.

The payload is a ``.npz`` of the exact in-memory arrays, so a cache hit
is bit-identical to the parse that produced it — asserted by
``tests/ingest/test_cache.py``.
"""

from __future__ import annotations

import io
import json
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.core.atomic import atomic_write_bytes, atomic_write_text, file_sha256
from repro.core.errors import CacheIntegrityError
from repro.core.vfs import get_vfs
from repro.geo.bbox import BBox
from repro.poi.database import POIDatabase
from repro.poi.vocabulary import TypeVocabulary

__all__ = ["DatasetCache"]

_MANIFEST = "manifest.json"
_PAYLOAD = "payload.npz"

#: Manifest schema version; bump on layout changes so stale entries read
#: as integrity failures (and get rebuilt) instead of misparsing.
_VERSION = 1


class DatasetCache:
    """A directory of parsed-dataset entries keyed by source digest."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)

    def entry_dir(self, source: "str | Path", source_digest: "str | None" = None) -> Path:
        """Where the entry for *source* (at its current content) lives."""
        source = Path(source)
        digest = source_digest if source_digest is not None else file_sha256(source)
        return self.root / f"{source.name}.{digest[:16]}"

    # --- read side ---

    def get(
        self, source: "str | Path", source_digest: "str | None" = None
    ) -> "POIDatabase | None":
        """The cached database for *source*, or ``None`` on a miss.

        Raises :class:`CacheIntegrityError` when an entry exists but
        fails validation (torn manifest, payload checksum mismatch,
        wrong schema version) — detected corruption, never a silent
        serve.
        """
        source = Path(source)
        digest = source_digest if source_digest is not None else file_sha256(source)
        entry = self.entry_dir(source, digest)
        manifest_path = entry / _MANIFEST
        if not manifest_path.exists():
            return None  # miss (or a crash before commit: same thing)
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CacheIntegrityError(
                f"cache manifest is not valid JSON: {exc}", path=manifest_path
            ) from exc
        if manifest.get("version") != _VERSION:
            raise CacheIntegrityError(
                f"cache entry has schema version {manifest.get('version')!r}, "
                f"expected {_VERSION}",
                path=manifest_path,
            )
        if manifest.get("source_sha256") != digest:
            raise CacheIntegrityError(
                "cache entry names a different source digest", path=manifest_path
            )
        payload_path = entry / _PAYLOAD
        if not payload_path.exists():
            raise CacheIntegrityError(
                "cache entry is missing its payload", path=payload_path
            )
        if file_sha256(payload_path) != manifest.get("payload_sha256"):
            raise CacheIntegrityError(
                "cache payload failed its checksum", path=payload_path
            )
        try:
            with np.load(payload_path) as payload:
                xy = payload["xy"]
                type_ids = payload["type_ids"]
        except (OSError, ValueError, KeyError) as exc:
            raise CacheIntegrityError(
                f"cache payload unreadable: {exc}", path=payload_path
            ) from exc
        return POIDatabase(
            xy,
            type_ids.astype(np.intp),
            TypeVocabulary(manifest["types"]),
            bounds=BBox(*manifest["bounds"]),
            cell_size=float(manifest["cell_size"]),
        )

    # --- write side ---

    def put(
        self,
        source: "str | Path",
        db: POIDatabase,
        *,
        cell_size: float = 500.0,
        source_digest: "str | None" = None,
    ) -> Path:
        """Persist *db* as the entry for *source*; returns the entry dir.

        Write order is the commit protocol: payload first, manifest
        last, each atomically.  Only a complete, checksummed entry ever
        becomes visible, and re-running an interrupted put simply
        replaces the orphaned payload.
        """
        source = Path(source)
        digest = source_digest if source_digest is not None else file_sha256(source)
        entry = self.entry_dir(source, digest)
        get_vfs().mkdir(entry, parents=True, exist_ok=True)

        buffer = io.BytesIO()
        np.savez(
            buffer,
            xy=db.positions.astype(float),
            type_ids=db.type_ids.astype(np.int64),
        )
        payload_bytes = buffer.getvalue()
        payload_path = atomic_write_bytes(entry / _PAYLOAD, payload_bytes)

        bounds = db.bounds
        manifest = {
            "version": _VERSION,
            "source": str(source),
            "source_sha256": digest,
            "payload_sha256": file_sha256(payload_path),
            "n_pois": len(db),
            "types": list(db.vocabulary.names),
            "bounds": [bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y],
            "cell_size": cell_size,
        }
        atomic_write_text(entry / _MANIFEST, json.dumps(manifest, indent=2))
        return entry

    def load_or_build(
        self,
        source: "str | Path",
        build: "Callable[[], POIDatabase]",
        *,
        cell_size: float = 500.0,
    ) -> tuple[POIDatabase, str]:
        """Serve *source* from cache, or build and commit a fresh entry.

        Returns ``(database, status)`` with status ``"hit"``, ``"miss"``,
        or ``"rebuilt"`` (an entry existed but failed integrity checks
        and was rebuilt from source).
        """
        source = Path(source)
        digest = file_sha256(source)
        status = "miss"
        try:
            cached = self.get(source, digest)
        except CacheIntegrityError:
            cached = None
            status = "rebuilt"
        if cached is not None:
            return cached, "hit"
        db = build()
        self.put(source, db, cell_size=cell_size, source_digest=digest)
        return db, status
