"""POI database persistence (CSV for POIs, JSON for metadata).

Lets a generated city be exported, inspected, and reloaded bit-exactly —
and lets users plug in their own real POI extracts in the same format:
a CSV with columns ``poi_id,x,y,type`` plus a JSON sidecar carrying the
vocabulary and bounds.

Both directions are hardened: :func:`save_database` writes atomically
(temp-file + rename, so a crash mid-write never leaves a half-written
city on disk), and :func:`load_database` is a thin wrapper over the
validating streaming loader in :mod:`repro.ingest.loaders` — malformed
rows surface as typed :class:`~repro.core.errors.IngestError` subtypes
carrying the file path and 1-based row number, never as a raw
``ValueError`` or ``csv.Error`` from deep in the stack.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.core.atomic import atomic_write_text, atomic_writer
from repro.ingest.loaders import POI_CSV_HEADER, ingest_poi_csv
from repro.ingest.report import IngestReport, record_ingest_report
from repro.poi.database import POIDatabase

__all__ = ["save_database", "load_database"]

_META_SUFFIX = ".meta.json"


def save_database(db: POIDatabase, csv_path: "str | Path") -> None:
    """Write *db* to ``csv_path`` and its metadata sidecar, atomically.

    Each file is written to a temp name and renamed into place, matching
    the checkpoint discipline in :mod:`repro.experiments.runner`: readers
    never observe a torn CSV or sidecar, whatever kills the writer.
    """
    csv_path = Path(csv_path)
    with atomic_writer(csv_path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(POI_CSV_HEADER)
        vocab = db.vocabulary
        for i in range(len(db)):
            loc = db.location_of(i)
            writer.writerow([i, f"{loc.x:.3f}", f"{loc.y:.3f}", vocab.name_of(db.type_of(i))])
    meta = {
        "n_pois": len(db),
        "types": list(db.vocabulary.names),
        "bounds": [db.bounds.min_x, db.bounds.min_y, db.bounds.max_x, db.bounds.max_y],
    }
    atomic_write_text(
        csv_path.with_name(csv_path.name + _META_SUFFIX), json.dumps(meta, indent=2)
    )


def load_database(
    csv_path: "str | Path",
    *,
    policy: str = "strict",
    quarantine_path: "str | Path | None" = None,
    cache_dir: "str | Path | None" = None,
) -> POIDatabase:
    """Load a database written by :func:`save_database`.

    Every record is validated under *policy* (``strict`` / ``repair`` /
    ``quarantine``, see :mod:`repro.ingest`).  With *cache_dir* set, the
    parsed database is served from (and committed to) the checksummed
    atomic :class:`~repro.ingest.cache.DatasetCache` keyed on the CSV's
    content digest.  The per-run :class:`~repro.ingest.report.IngestReport`
    flows to the provenance collector either way.
    """
    csv_path = Path(csv_path)
    if cache_dir is None:
        db, _report = ingest_poi_csv(
            csv_path, policy=policy, quarantine_path=quarantine_path
        )
        return db

    # Imported here, not at module top: repro.ingest's package init pulls
    # in the cache, whose POIDatabase import runs this module — a cycle
    # whenever repro.ingest.* is the first thing a process imports.
    from repro.ingest.cache import DatasetCache

    cache = DatasetCache(cache_dir)
    parse_reports: list[IngestReport] = []

    def build() -> POIDatabase:
        db, report = ingest_poi_csv(
            csv_path, policy=policy, quarantine_path=quarantine_path
        )
        parse_reports.append(report)
        return db

    db, status = cache.load_or_build(csv_path, build)
    if parse_reports:
        # The report is already with the collector; stamping the cache
        # status mutates the same object it holds.
        parse_reports[0].cache = status
    else:
        # Cache hit: the parse (and its report) was skipped entirely;
        # account for the served records so provenance still covers
        # this load.
        report = IngestReport(
            path=str(csv_path),
            format="poi-csv",
            policy=policy,
            n_records=len(db),
            counts={"ok": len(db), "repaired": 0, "quarantined": 0},
            cache="hit",
        )
        record_ingest_report(report)
    return db
