"""Hardened dataset ingestion: validating loaders, policies, chaos, cache.

The attacks and defenses in this package are only as trustworthy as the
POI and trajectory data they run on, and real extracts are messy:
malformed rows, duplicated IDs, out-of-bounds coordinates, encoding
damage, files truncated mid-write.  This package is the supervised edge
between the filesystem and the in-memory substrates — the data-plane
counterpart of the fault injection in :mod:`repro.lbs.faults` and the
shard supervision in :mod:`repro.experiments.supervisor`:

* **validating streaming loaders** (:mod:`repro.ingest.loaders`) for the
  three on-disk formats (POI CSV + JSON sidecar, OSM XML, trajectory
  logs), classifying every damaged record into the
  :class:`~repro.core.errors.IngestError` taxonomy;
* **policies** — ``strict`` fails fast with the file and 1-based record
  of the fault, ``repair`` applies deterministic fixes (clamping,
  reordering, exact-duplicate dropping) and fails on anything else,
  ``quarantine`` diverts bad records to a sidecar file and continues;
* an :class:`~repro.ingest.report.IngestReport` accounting for every
  input record by fate, folded into ``ExperimentResult.provenance`` the
  same way shard supervision reports are;
* a **seeded file-corruption injector** (:mod:`repro.ingest.faults`)
  driving the chaos suite in ``tests/ingest/test_chaos.py``;
* a **content-checksummed atomic dataset cache**
  (:mod:`repro.ingest.cache`) keyed on the source file's digest, written
  via temp-file + rename so a crash mid-write never leaves a torn entry.
"""

from repro.core.errors import (
    CacheIntegrityError,
    CoordinateBoundsError,
    DuplicateRecordError,
    EncodingDamageError,
    IngestError,
    SchemaDriftError,
    TruncatedInputError,
)
from repro.ingest.cache import DatasetCache
from repro.ingest.faults import CORRUPTION_CLASSES, CorruptionPlan, FileCorruptor
from repro.ingest.loaders import ingest_osm_xml, ingest_poi_csv, ingest_trajectory_log
from repro.ingest.report import (
    POLICIES,
    IngestReport,
    RecordIssue,
    collecting_ingest_reports,
    record_ingest_report,
)

__all__ = [
    "CORRUPTION_CLASSES",
    "POLICIES",
    "CacheIntegrityError",
    "CoordinateBoundsError",
    "CorruptionPlan",
    "DatasetCache",
    "DuplicateRecordError",
    "EncodingDamageError",
    "FileCorruptor",
    "IngestError",
    "IngestReport",
    "RecordIssue",
    "SchemaDriftError",
    "TruncatedInputError",
    "collecting_ingest_reports",
    "ingest_osm_xml",
    "ingest_poi_csv",
    "ingest_trajectory_log",
    "record_ingest_report",
]
