"""Streaming, validating loaders for the three on-disk dataset formats.

Each loader walks its source one record at a time, classifies every
damaged record into the :class:`~repro.core.errors.IngestError`
taxonomy, and resolves it under the requested policy:

* ``strict`` — raise immediately, naming the file and the 1-based record
  (plus the byte offset for encoding damage and truncation);
* ``repair`` — apply the deterministic fix where one exists (strip
  whitespace damage, clamp out-of-bounds coordinates, drop exact
  duplicates, restore declared ID order) and raise on anything else;
* ``quarantine`` — apply the same deterministic fixes, divert every
  *unfixable* record to a JSONL sidecar, and keep going.

File-scoped damage — truncation, undecodable bytes under
strict/repair, a missing or inconsistent sidecar, a malformed header —
always raises: records that never made it to disk cannot be repaired or
quarantined.  Every loader returns the parsed dataset together with an
:class:`~repro.ingest.report.IngestReport` whose fates account for every
input record, and registers that report with the provenance collector.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

if TYPE_CHECKING:
    from repro.datasets.trajectory import Trajectory

import numpy as np

from repro.core.atomic import atomic_write_text, file_sha256
from repro.core.errors import (
    CoordinateBoundsError,
    DatasetError,
    DuplicateRecordError,
    EncodingDamageError,
    IngestError,
    SchemaDriftError,
    TruncatedInputError,
)
from repro.geo.bbox import BBox
from repro.geo.point import GeoPoint
from repro.geo.projection import LocalProjection
from repro.ingest.report import POLICIES, IngestReport, RecordIssue, record_ingest_report
from repro.poi.database import POIDatabase
from repro.poi.vocabulary import TypeVocabulary

__all__ = [
    "ingest_poi_csv",
    "ingest_trajectory_log",
    "ingest_osm_xml",
    "POI_CSV_HEADER",
    "TRAJECTORY_LOG_HEADER",
    "DEFAULT_TYPE_KEYS",
    "META_SUFFIX",
    "QUARANTINE_SUFFIX",
]

#: Column schema of the POI CSV format (written by ``save_database``).
POI_CSV_HEADER = ("poi_id", "x", "y", "type")

#: Column schema of the trajectory log format
#: (written by ``repro.datasets.trajectory_io.save_trajectory_log``).
TRAJECTORY_LOG_HEADER = ("user_id", "t", "x", "y")

#: Tag keys consulted for an OSM node's POI type, in priority order.
DEFAULT_TYPE_KEYS = ("amenity", "shop", "leisure", "tourism")

#: Suffix of the JSON metadata sidecar next to a POI CSV.
META_SUFFIX = ".meta.json"

#: Suffix of the quarantine sidecar written next to a damaged source.
QUARANTINE_SUFFIX = ".quarantine.jsonl"

_T = TypeVar("_T")


class _Ingestion:
    """Per-run policy state: the report, quarantine buffer, and resolver.

    Every record lands in exactly one fate, however many damages it
    carries: ``_fates`` remembers each record's current fate so a second
    repair on the same record only adds an issue, and a quarantine after
    an earlier repair moves the record rather than counting it twice.
    """

    def __init__(
        self,
        path: Path,
        fmt: str,
        policy: str,
        quarantine_path: "str | Path | None",
    ) -> None:
        if policy not in POLICIES:
            raise IngestError(
                f"unknown ingest policy {policy!r}; expected one of {POLICIES}"
            )
        self.path = path
        self.policy = policy
        self.report = IngestReport(
            path=str(path), format=fmt, policy=policy, source_sha256=file_sha256(path)
        )
        self._quarantine_path = Path(
            quarantine_path
            if quarantine_path is not None
            else path.with_name(path.name + QUARANTINE_SUFFIX)
        )
        self._quarantined: list[dict] = []
        self._fates: dict[int, str] = {}

    def ok(self, record: int) -> None:
        """Fate *record* ``ok`` — a no-op if a repair already fated it."""
        if record not in self._fates:
            self._fates[record] = "ok"
            self.report.tally("ok")

    def repaired(self, record: int, exc_cls: type[IngestError], detail: str) -> None:
        issue = RecordIssue(record, exc_cls.__name__, detail, "repaired")
        if record in self._fates:
            self.report.note(issue)
        else:
            self._fates[record] = "repaired"
            self.report.tally("repaired", issue)

    def refate_repaired(self, record: int, detail: str) -> None:
        """Post-stream repair of a record provisionally fated ``ok``."""
        issue = RecordIssue(
            record, DuplicateRecordError.__name__, detail, "repaired"
        )
        if self._fates.get(record) == "ok":
            self._fates[record] = "repaired"
            self.report.refate("ok", issue)
        else:
            self.report.note(issue)

    def resolve(
        self,
        record: int,
        exc_cls: type[IngestError],
        detail: str,
        raw: object,
        repair: "Callable[[], _T] | None" = None,
    ) -> "_T | None":
        """Settle one damaged record under the active policy.

        Returns the repaired value when the damage is deterministically
        fixable and the policy allows repairs, ``None`` when the record
        was quarantined, and raises the typed error otherwise.
        """
        if self.policy in ("repair", "quarantine") and repair is not None:
            value = repair()
            self.repaired(record, exc_cls, detail)
            return value
        if self.policy == "quarantine":
            issue = RecordIssue(record, exc_cls.__name__, detail, "quarantined")
            prior = self._fates.get(record)
            self._fates[record] = "quarantined"
            if prior is None:
                self.report.tally("quarantined", issue)
            else:
                self.report.refate(prior, issue)
            self._quarantined.append(
                {"record": record, "error": exc_cls.__name__, "detail": detail, "raw": raw}
            )
            return None
        raise exc_cls(detail, path=self.path, record=record)

    def finish(self) -> IngestReport:
        """Flush the quarantine sidecar (atomically) and publish the report."""
        if self._quarantined:
            atomic_write_text(
                self._quarantine_path,
                "".join(json.dumps(entry) + "\n" for entry in self._quarantined),
            )
            self.report.quarantine_path = str(self._quarantine_path)
        record_ingest_report(self.report)
        return self.report


def _iter_decoded_lines(path: Path) -> Iterator[tuple[int, int, "str | None", bytes]]:
    """Yield ``(1-based line no, byte offset, text or None, raw bytes)``.

    Lines are read as bytes and decoded individually, so encoding damage
    is localised to the record that carries it (``text is None``).  A
    final line with no terminating newline signals truncation mid-record
    and raises :class:`TruncatedInputError` — every writer in this
    repository terminates its last record.
    """
    offset = 0
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.endswith(b"\n"):
                raise TruncatedInputError(
                    f"file ends mid-record at byte {offset + len(raw)} "
                    f"(line {lineno} has no terminating newline)",
                    path=path,
                )
            try:
                text = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                text = None
            yield lineno, offset, text, raw
            offset += len(raw)


def _split_csv(line: str) -> "list[str] | None":
    """Parse one single-line CSV record (the formats never quote newlines).

    ``None`` when the csv machinery itself rejects the line (a stray
    control character from bit-level damage): the caller classifies that
    as schema drift rather than letting ``_csv.Error`` escape.
    """
    try:
        rows = list(csv.reader([line]))
    except csv.Error:
        return None
    return rows[0] if rows else []


def _parse_float(field: str) -> "float | None":
    try:
        return float(field)
    except ValueError:
        return None


def _parse_int(field: str) -> "int | None":
    try:
        return int(field)
    except ValueError:
        return None


def _decode_or_resolve(
    ing: _Ingestion, record: int, lineno: int, offset: int, text: "str | None", raw: bytes
) -> bool:
    """Handle per-line encoding damage; True when the record is usable."""
    if text is not None:
        return True
    ing.resolve(
        record,
        EncodingDamageError,
        f"line {lineno} (byte {offset}) does not decode as UTF-8",
        raw.hex(),
    )
    return False


# --- POI CSV + JSON sidecar ------------------------------------------------


def _load_sidecar(csv_path: Path) -> tuple[dict, TypeVocabulary, BBox]:
    """Read and validate the ``.meta.json`` sidecar next to *csv_path*."""
    meta_path = csv_path.with_name(csv_path.name + META_SUFFIX)
    if not meta_path.exists():
        raise IngestError(f"metadata sidecar not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise EncodingDamageError(
            f"metadata sidecar does not decode as UTF-8: {exc}", path=meta_path
        ) from exc
    except json.JSONDecodeError as exc:
        raise SchemaDriftError(
            f"metadata sidecar is not valid JSON: {exc}", path=meta_path
        ) from exc
    if not isinstance(meta, dict):
        raise SchemaDriftError(
            f"metadata sidecar must be a JSON object, got {type(meta).__name__}",
            path=meta_path,
        )
    for key in ("n_pois", "types", "bounds"):
        if key not in meta:
            raise SchemaDriftError(
                f"metadata sidecar is missing key {key!r}", path=meta_path
            )
    if not isinstance(meta["n_pois"], int) or meta["n_pois"] < 0:
        raise SchemaDriftError(
            f"sidecar n_pois must be a non-negative integer, got {meta['n_pois']!r}",
            path=meta_path,
        )
    types = meta["types"]
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        raise SchemaDriftError(
            "sidecar 'types' must be a list of strings", path=meta_path
        )
    try:
        vocab = TypeVocabulary(types)
    except DatasetError as exc:
        raise SchemaDriftError(f"sidecar 'types' invalid: {exc}", path=meta_path) from exc
    bounds_raw = meta["bounds"]
    if (
        not isinstance(bounds_raw, list)
        or len(bounds_raw) != 4
        or not all(isinstance(b, (int, float)) and math.isfinite(b) for b in bounds_raw)
    ):
        raise SchemaDriftError(
            "sidecar 'bounds' must be four finite numbers "
            "[min_x, min_y, max_x, max_y]",
            path=meta_path,
        )
    min_x, min_y, max_x, max_y = (float(b) for b in bounds_raw)
    if min_x > max_x or min_y > max_y:
        raise SchemaDriftError(
            f"sidecar 'bounds' are inverted: {bounds_raw}", path=meta_path
        )
    return meta, vocab, BBox(min_x, min_y, max_x, max_y)


def ingest_poi_csv(
    csv_path: "str | Path",
    *,
    policy: str = "strict",
    quarantine_path: "str | Path | None" = None,
) -> tuple[POIDatabase, IngestReport]:
    """Load a POI CSV (+ ``.meta.json`` sidecar) under an ingest policy.

    Validates, per data row: field count, integer ``poi_id``, finite
    float coordinates inside the sidecar bounds, a type name from the
    sidecar vocabulary, unique IDs in declared (0..n-1) order; and, per
    file: UTF-8 encoding, a terminated final record, and a row count
    matching the sidecar's ``n_pois``.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise IngestError(f"POI CSV not found: {csv_path}")
    _meta_dict, vocab, bounds = _load_sidecar(csv_path)
    declared = _meta_dict["n_pois"]
    ing = _Ingestion(csv_path, "poi-csv", policy, quarantine_path)

    header_seen = False
    # Rows that survive validation: (record, poi_id, x, y, type_id).
    kept: list[tuple[int, int, float, float, int]] = []
    seen_ids: dict[int, tuple[float, float, int]] = {}
    n_rows = 0
    for lineno, offset, text, raw in _iter_decoded_lines(csv_path):
        if not header_seen:
            if text is None:
                raise EncodingDamageError(
                    f"header line does not decode as UTF-8 (byte {offset})",
                    path=csv_path,
                )
            header = _split_csv(text)
            if header is None or tuple(header) != POI_CSV_HEADER:
                raise SchemaDriftError(
                    f"header mismatch: expected {','.join(POI_CSV_HEADER)!r}, "
                    f"got {text!r}",
                    path=csv_path,
                )
            header_seen = True
            continue
        n_rows += 1
        record = n_rows  # 1-based data row, header excluded
        if not _decode_or_resolve(ing, record, lineno, offset, text, raw):
            continue
        assert text is not None
        row = _parse_poi_row(ing, record, text, vocab, bounds)
        if row is None:
            continue
        poi_id, x, y, type_id = row
        if poi_id in seen_ids:
            detail = f"duplicate poi_id {poi_id}"
            repair = None
            if seen_ids[poi_id] == (x, y, type_id):
                # Byte-identical payload: dropping the copy is lossless.
                repair = lambda: None  # noqa: E731 — sentinel "drop" repair
                detail += " (exact duplicate of an earlier row)"
            ing.resolve(record, DuplicateRecordError, detail, text, repair)
            continue
        seen_ids[poi_id] = (x, y, type_id)
        kept.append((record, poi_id, x, y, type_id))
        ing.ok(record)  # may be re-fated to "repaired" by the order check below

    if not header_seen:
        raise TruncatedInputError("empty POI CSV (no header row)", path=csv_path)
    if n_rows < declared:
        raise TruncatedInputError(
            f"POI count mismatch: CSV has {n_rows} data rows, sidecar declares "
            f"{declared} (truncated input?)",
            path=csv_path,
        )

    kept = _restore_declared_order(ing, kept)
    if len(kept) != declared and n_rows == len(kept):
        # Nothing was diverted or dropped, yet the count disagrees: the
        # sidecar and CSV are inconsistent with each other.
        raise SchemaDriftError(
            f"POI count mismatch: CSV has {len(kept)} data rows, sidecar "
            f"declares {declared}",
            path=csv_path,
        )

    report = ing.finish()
    if not kept:
        raise TruncatedInputError(
            "no loadable POI rows survived ingestion", path=csv_path
        )
    xy = np.array([[x, y] for _, _, x, y, _ in kept], dtype=float)
    type_ids = np.array([t for *_, t in kept], dtype=np.intp)
    return POIDatabase(xy, type_ids, vocab, bounds=bounds), report


def _parse_poi_row(
    ing: _Ingestion, record: int, text: str, vocab: TypeVocabulary, bounds: BBox
) -> "tuple[int, float, float, int] | None":
    """Validate one CSV row; None when it was quarantined/unusable."""
    fields = _split_csv(text)
    if fields is None:
        ing.resolve(
            record, SchemaDriftError, "row is not a parsable CSV record", text
        )
        return None
    if len(fields) != len(POI_CSV_HEADER):
        ing.resolve(
            record,
            SchemaDriftError,
            f"expected {len(POI_CSV_HEADER)} fields, got {len(fields)}",
            text,
        )
        return None
    raw_id, raw_x, raw_y, raw_type = fields

    poi_id = _parse_int(raw_id)
    if poi_id is None:
        repaired_id = _parse_int(raw_id.strip())
        result = ing.resolve(
            record,
            SchemaDriftError,
            f"poi_id {raw_id!r} is not an integer",
            text,
            (lambda: repaired_id) if repaired_id is not None else None,
        )
        if result is None:
            return None
        poi_id = result

    coords: list[float] = []
    for name, raw_field in (("x", raw_x), ("y", raw_y)):
        value = _parse_float(raw_field)
        if value is None:
            repaired_value = _parse_float(raw_field.strip())
            result = ing.resolve(
                record,
                SchemaDriftError,
                f"{name} {raw_field!r} is not a number",
                text,
                (lambda v=repaired_value: v) if repaired_value is not None else None,
            )
            if result is None:
                return None
            value = result
        coords.append(value)
    x, y = coords
    if not (math.isfinite(x) and math.isfinite(y)):
        ing.resolve(
            record, CoordinateBoundsError, f"non-finite coordinates ({x}, {y})", text
        )
        return None
    if not (bounds.min_x <= x <= bounds.max_x and bounds.min_y <= y <= bounds.max_y):
        clamped = (
            min(max(x, bounds.min_x), bounds.max_x),
            min(max(y, bounds.min_y), bounds.max_y),
        )
        result = ing.resolve(
            record,
            CoordinateBoundsError,
            f"({x}, {y}) outside sidecar bounds "
            f"[{bounds.min_x}, {bounds.min_y}, {bounds.max_x}, {bounds.max_y}]",
            text,
            lambda: clamped,
        )
        if result is None:
            return None
        x, y = result

    if raw_type in vocab:
        type_id = vocab.id_of(raw_type)
    else:
        stripped = raw_type.strip()
        result = ing.resolve(
            record,
            SchemaDriftError,
            f"unknown type name {raw_type!r}",
            text,
            (lambda: vocab.id_of(stripped)) if stripped in vocab else None,
        )
        if result is None:
            return None
        type_id = result
    return poi_id, x, y, type_id


def _restore_declared_order(
    ing: _Ingestion, kept: list[tuple[int, int, float, float, int]]
) -> list[tuple[int, int, float, float, int]]:
    """Enforce the declared ascending poi_id order on the surviving rows.

    Under strict, any ID out of ascending order raises; under
    repair/quarantine the rows are sorted back (a deterministic fix) and
    the displaced rows re-fated from ``ok`` to ``repaired``.  Gaps in
    the ID sequence are legitimate after quarantining, so only *order*
    is enforced here.
    """
    ids = [poi_id for _, poi_id, _, _, _ in kept]
    if ids == sorted(ids):
        return kept
    first_bad = next(i for i in range(1, len(ids)) if ids[i] < ids[i - 1])
    if ing.policy == "strict":
        raise DuplicateRecordError(
            f"poi_id order violated: id {ids[first_bad]} follows {ids[first_bad - 1]}",
            path=ing.path,
            record=kept[first_bad][0],
        )
    ordered = sorted(kept, key=lambda row: row[1])
    for i, row in enumerate(ordered):
        if row is not kept[i]:
            ing.refate_repaired(
                row[0], f"poi_id {row[1]} out of declared order; restored by sort"
            )
    return ordered


# --- trajectory logs -------------------------------------------------------


def ingest_trajectory_log(
    path: "str | Path",
    *,
    policy: str = "strict",
    quarantine_path: "str | Path | None" = None,
) -> "tuple[list[Trajectory], IngestReport]":
    """Load a trajectory log (``user_id,t,x,y`` CSV) under an ingest policy.

    Validates, per data row: field count, integer ``user_id``, finite
    floats, and per user: nondecreasing timestamps (repairable by a
    stable sort) and no duplicated samples (an exact duplicate is
    droppable; two samples at one timestamp with different locations are
    not).  Returns ``(trajectories, report)``.
    """
    from repro.datasets.trajectory import Trajectory, TrajectoryPoint
    from repro.geo.point import Point

    path = Path(path)
    if not path.exists():
        raise IngestError(f"trajectory log not found: {path}")
    ing = _Ingestion(path, "trajectory-log", policy, quarantine_path)

    header_seen = False
    per_user: dict[int, list[tuple[float, float, float]]] = {}
    seen_samples: dict[int, set[tuple[float, float, float]]] = {}
    seen_times: dict[int, set[float]] = {}
    n_rows = 0
    for lineno, offset, text, raw in _iter_decoded_lines(path):
        if not header_seen:
            if text is None:
                raise EncodingDamageError(
                    f"header line does not decode as UTF-8 (byte {offset})", path=path
                )
            header = _split_csv(text)
            if header is None or tuple(header) != TRAJECTORY_LOG_HEADER:
                raise SchemaDriftError(
                    f"header mismatch: expected "
                    f"{','.join(TRAJECTORY_LOG_HEADER)!r}, got {text!r}",
                    path=path,
                )
            header_seen = True
            continue
        n_rows += 1
        record = n_rows
        if not _decode_or_resolve(ing, record, lineno, offset, text, raw):
            continue
        assert text is not None
        fields = _split_csv(text)
        if fields is None:
            ing.resolve(
                record, SchemaDriftError, "row is not a parsable CSV record", text
            )
            continue
        if len(fields) != len(TRAJECTORY_LOG_HEADER):
            ing.resolve(
                record,
                SchemaDriftError,
                f"expected {len(TRAJECTORY_LOG_HEADER)} fields, got {len(fields)}",
                text,
            )
            continue
        user_id = _parse_int(fields[0].strip())
        values = [_parse_float(f.strip()) for f in fields[1:]]
        if user_id is None or any(v is None for v in values):
            bad = fields[0] if user_id is None else fields[1 + values.index(None)]
            ing.resolve(
                record, SchemaDriftError, f"unparsable field {bad!r}", text
            )
            continue
        t, x, y = (float(v) for v in values if v is not None)
        if not all(math.isfinite(v) for v in (t, x, y)):
            ing.resolve(
                record,
                CoordinateBoundsError,
                f"non-finite sample (t={t}, x={x}, y={y})",
                text,
            )
            continue
        samples = per_user.setdefault(user_id, [])
        if (t, x, y) in seen_samples.get(user_id, set()):
            ing.resolve(
                record,
                DuplicateRecordError,
                f"exact duplicate sample for user {user_id} at t={t}",
                text,
                lambda: None,  # dropping an identical sample is lossless
            )
            continue
        if t in seen_times.get(user_id, set()):
            ing.resolve(
                record,
                DuplicateRecordError,
                f"two different samples for user {user_id} at t={t}",
                text,
            )
            continue
        if samples and t < samples[-1][0]:
            if ing.policy == "strict":
                raise DuplicateRecordError(
                    f"out-of-order sample for user {user_id}: t={t} after "
                    f"t={samples[-1][0]}",
                    path=path,
                    record=record,
                )
            ing.repaired(
                record,
                DuplicateRecordError,
                f"out-of-order sample for user {user_id} at t={t}; "
                "restored by stable sort",
            )
        else:
            ing.ok(record)
        samples.append((t, x, y))
        seen_samples.setdefault(user_id, set()).add((t, x, y))
        seen_times.setdefault(user_id, set()).add(t)

    if not header_seen:
        raise TruncatedInputError("empty trajectory log (no header row)", path=path)

    report = ing.finish()
    trajectories = [
        Trajectory(
            user_id=user,
            points=tuple(
                TrajectoryPoint(Point(x, y), t)
                for t, x, y in sorted(samples, key=lambda s: s[0])
            ),
        )
        for user, samples in per_user.items()
    ]
    return trajectories, report


# --- OSM XML ---------------------------------------------------------------


def _node_type(tags: dict[str, str], type_keys: Sequence[str]) -> "str | None":
    for key in type_keys:
        value = tags.get(key)
        if value:
            return f"{key}:{value}"
    return None


def _classify_parse_error(exc: ET.ParseError) -> type[IngestError]:
    """Truncation shows up as an EOF-shaped parse error; damage as syntax."""
    message = str(exc)
    if message.startswith(("no element found", "unclosed token", "unclosed CDATA")):
        return TruncatedInputError
    return SchemaDriftError


def ingest_osm_xml(
    path: "str | Path",
    *,
    policy: str = "strict",
    type_keys: Sequence[str] = DEFAULT_TYPE_KEYS,
    anchor: "GeoPoint | None" = None,
    cell_size: float = 500.0,
    quarantine_path: "str | Path | None" = None,
) -> tuple[POIDatabase, IngestReport]:
    """Parse an ``.osm`` XML extract into a database under an ingest policy.

    Nodes carrying one of *type_keys* are the records; tagless nodes are
    geometry and are skipped without entering the ledger.  Validates,
    per record: ``lat``/``lon`` present and parsable (a POI node missing
    them is schema drift, naming the node id), coordinates inside WGS-84
    range (repairable by clamping), and unique node ids (an exact
    duplicate is droppable).  An extract with zero matching tag keys
    raises :class:`SchemaDriftError`; an empty or mid-element-truncated
    file raises :class:`TruncatedInputError`.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"OSM file not found: {path}")
    with path.open("rb") as fh:
        if not fh.read(4096).strip():
            raise TruncatedInputError("empty OSM file", path=path)
    ing = _Ingestion(path, "osm-xml", policy, quarantine_path)

    geos: list[GeoPoint] = []
    type_names: list[str] = []
    seen_nodes: dict[str, tuple[float, float, str]] = {}
    n_nodes = 0
    try:
        for _event, node in ET.iterparse(path, events=("end",)):
            if node.tag != "node":
                continue
            n_nodes += 1
            parsed = _parse_osm_node(ing, n_nodes, node, type_keys, seen_nodes)
            node.clear()
            if parsed is None:
                continue
            lat, lon, name = parsed
            geos.append(GeoPoint(lat, lon))
            type_names.append(name)
    except ET.ParseError as exc:
        raise _classify_parse_error(exc)(
            f"malformed OSM XML in {path}: {exc}", path=path
        ) from exc
    except (LookupError, ValueError) as exc:
        # expat rejecting the declared encoding (damaged or unsupported
        # <?xml encoding=...?>) surfaces as LookupError/ValueError.
        raise EncodingDamageError(
            f"undecodable OSM XML in {path}: {exc}", path=path
        ) from exc

    report = ing.finish()
    if not geos:
        raise SchemaDriftError(
            f"no POI nodes found in {path} (looked for tags {tuple(type_keys)})",
            path=path,
        )

    if anchor is None:
        anchor = GeoPoint(
            float(np.mean([g.lat for g in geos])),
            float(np.mean([g.lon for g in geos])),
        )
    projection = LocalProjection(anchor)
    xy = np.array([[p.x, p.y] for p in (projection.to_plane(g) for g in geos)])
    vocabulary = TypeVocabulary(sorted(set(type_names)))
    type_ids = np.array([vocabulary.id_of(n) for n in type_names], dtype=np.intp)
    return POIDatabase(xy, type_ids, vocabulary, cell_size=cell_size), report


def _parse_osm_node(
    ing: _Ingestion,
    ordinal: int,
    node: ET.Element,
    type_keys: Sequence[str],
    seen_nodes: dict[str, tuple[float, float, str]],
) -> "tuple[float, float, str] | None":
    """Validate one ``<node>``; None when skipped or quarantined."""
    tags = {tag.get("k", ""): tag.get("v", "") for tag in node.findall("tag")}
    name = _node_type(tags, type_keys)
    if name is None:
        return None  # geometry, not a POI record: stays out of the ledger
    node_id = node.get("id", f"<node #{ordinal}>")
    raw = {"id": node_id, "lat": node.get("lat"), "lon": node.get("lon"), "type": name}

    lat_attr, lon_attr = node.get("lat"), node.get("lon")
    if lat_attr is None or lon_attr is None:
        missing = "lat" if lat_attr is None else "lon"
        ing.resolve(
            ordinal,
            SchemaDriftError,
            f"POI node {node_id} is missing the {missing!r} attribute",
            raw,
        )
        return None
    lat, lon = _parse_float(lat_attr.strip()), _parse_float(lon_attr.strip())
    if lat is None or lon is None:
        bad = lat_attr if lat is None else lon_attr
        ing.resolve(
            ordinal,
            SchemaDriftError,
            f"node {node_id} has unparsable coordinate {bad!r}",
            raw,
        )
        return None
    if not (math.isfinite(lat) and math.isfinite(lon)):
        ing.resolve(
            ordinal,
            CoordinateBoundsError,
            f"node {node_id} has non-finite coordinates ({lat}, {lon})",
            raw,
        )
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        clamped = (min(max(lat, -90.0), 90.0), min(max(lon, -180.0), 180.0))
        result = ing.resolve(
            ordinal,
            CoordinateBoundsError,
            f"node {node_id} coordinates ({lat}, {lon}) outside WGS-84 range",
            raw,
            lambda: clamped,
        )
        if result is None:
            return None
        lat, lon = result
    if node_id in seen_nodes:
        detail = f"duplicate node id {node_id}"
        repair = None
        if seen_nodes[node_id] == (lat, lon, name):
            repair = lambda: None  # noqa: E731 — sentinel "drop" repair
            detail += " (exact duplicate of an earlier node)"
        ing.resolve(ordinal, DuplicateRecordError, detail, raw, repair)
        return None
    seen_nodes[node_id] = (lat, lon, name)
    ing.ok(ordinal)
    return lat, lon, name
