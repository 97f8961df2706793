"""Seeded file-corruption injection for the ingestion chaos harness.

The data-plane mirror of :mod:`repro.lbs.faults`: where that module
damages releases in flight, this one damages datasets *at rest*, in
exactly the ways real extracts and interrupted copies get damaged — bit
flips, truncation, mutated rows, duplicated or reordered records,
sidecar/CSV disagreement, undecodable bytes.  Every byte and row choice
is drawn from one seeded generator, so the same ``(seed, plan)`` pair
always produces the same corrupted file, and the chaos suite in
``tests/ingest/test_chaos.py`` can assert the exact loader behavior per
corruption class and policy.

Corruption deliberately produces damage the *loaders* must classify —
the injector never tells the loader what it did.  ``applied`` records
every operation for the test-side ledger.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.atomic import atomic_write_bytes
from repro.core.errors import ConfigError
from repro.core.rng import RngLike, as_generator

__all__ = ["CORRUPTION_CLASSES", "CorruptionPlan", "FileCorruptor"]

#: Every corruption class the injector can apply, in taxonomy order.
CORRUPTION_CLASSES = (
    "bit_flip",
    "truncate",
    "garble_field",
    "out_of_bounds",
    "unknown_type",
    "drop_field",
    "duplicate_row",
    "swap_rows",
    "encoding_damage",
    "sidecar_mismatch",
)

#: Classes that mutate CSV-shaped rows (need a header + data rows).
_ROW_CLASSES = (
    "garble_field",
    "out_of_bounds",
    "unknown_type",
    "drop_field",
    "duplicate_row",
    "swap_rows",
    "encoding_damage",
)


@dataclass(frozen=True, slots=True)
class CorruptionPlan:
    """Declarative description of one corruption to apply.

    ``corruption`` names a class from :data:`CORRUPTION_CLASSES`;
    ``intensity`` scales how much damage it does (bits flipped, fraction
    truncated, rows mutated).  Which bytes/rows are hit is the
    corruptor's seeded choice, never the plan's.
    """

    corruption: str
    intensity: int = 1

    def __post_init__(self) -> None:
        if self.corruption not in CORRUPTION_CLASSES:
            raise ConfigError(
                f"unknown corruption {self.corruption!r}; "
                f"expected one of {CORRUPTION_CLASSES}"
            )
        if self.intensity < 1:
            raise ConfigError(f"intensity must be >= 1, got {self.intensity}")


@dataclass
class FileCorruptor:
    """Applies seeded corruption to files on disk.

    All randomness comes from the single generator handed in at
    construction, so a corruption run is a pure function of
    ``(seed, plan, file bytes)``.  Writes go through the atomic writer —
    the injector damages *content*, never write *atomicity* (torn writes
    are the cache/loader layer's job to prevent, and the chaos suite
    asserts they never happen).
    """

    rng: RngLike = None
    applied: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = as_generator(self.rng)

    def apply(self, plan: CorruptionPlan, path: "str | Path") -> dict:
        """Apply *plan* to *path*; returns a ledger entry of what was done."""
        path = Path(path)
        op = getattr(self, plan.corruption)
        entry = op(path, plan.intensity)
        entry.update({"corruption": plan.corruption, "path": str(path)})
        self.applied.append(entry)
        return entry

    # --- byte-level damage ---

    def bit_flip(self, path: "str | Path", n_flips: int = 1) -> dict:
        """Flip *n_flips* seeded bits anywhere in the file body."""
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            return {"offsets": []}
        offsets = sorted(
            int(i) for i in self.rng.integers(0, len(data), size=n_flips)
        )
        for offset in offsets:
            data[offset] ^= 1 << int(self.rng.integers(0, 8))
        atomic_write_bytes(path, bytes(data))
        return {"offsets": offsets}

    def truncate(self, path: "str | Path", intensity: int = 1) -> dict:
        """Cut the file's tail at a seeded offset (more intensity = shorter).

        The cut lands strictly inside the data region (never at offset
        0), modelling a copy or download that died mid-stream.
        """
        path = Path(path)
        data = path.read_bytes()
        if len(data) < 2:
            return {"cut_at": len(data)}
        lo = max(1, len(data) // (intensity + 1))
        hi = max(lo + 1, len(data) - 1)
        cut = int(self.rng.integers(lo, hi))
        atomic_write_bytes(path, data[:cut])
        return {"cut_at": cut}

    def encoding_damage(self, path: "str | Path", intensity: int = 1) -> dict:
        """Overwrite seeded row bytes with invalid UTF-8 (0xFF runs)."""
        path = Path(path)
        lines = path.read_bytes().splitlines(keepends=True)
        rows = self._data_rows(lines)
        if not rows:
            return {"rows": []}
        picks = self._pick_rows(rows, intensity)
        for row in picks:
            body = bytearray(lines[row])
            pos = int(self.rng.integers(0, max(1, len(body) - 1)))
            body[pos : pos + 1] = b"\xff\xfe"
            lines[row] = bytes(body)
        atomic_write_bytes(path, b"".join(lines))
        return {"rows": picks}

    # --- row-level damage (CSV-shaped files: header + data rows) ---

    def garble_field(self, path: "str | Path", intensity: int = 1) -> dict:
        """Replace a numeric field of seeded rows with unparsable text."""
        return self._mutate_rows(
            path, intensity, lambda f: self._replace(f, self._numeric_slot(f), "NOT#A#NUM")
        )

    def out_of_bounds(self, path: "str | Path", intensity: int = 1) -> dict:
        """Push a coordinate of seeded rows far outside any sane bounds."""
        return self._mutate_rows(
            path, intensity, lambda f: self._replace(f, self._numeric_slot(f), "9.9e12")
        )

    def unknown_type(self, path: "str | Path", intensity: int = 1) -> dict:
        """Replace the trailing (type) field with an undeclared name."""
        return self._mutate_rows(
            path, intensity, lambda f: self._replace(f, len(f) - 1, "zz_undeclared")
        )

    def drop_field(self, path: "str | Path", intensity: int = 1) -> dict:
        """Delete one seeded field from seeded rows (schema drift)."""

        def drop(fields: list[str]) -> list[str]:
            victim = int(self.rng.integers(0, len(fields)))
            return fields[:victim] + fields[victim + 1 :]

        return self._mutate_rows(path, intensity, drop)

    def duplicate_row(self, path: "str | Path", intensity: int = 1) -> dict:
        """Repeat seeded data rows immediately after themselves."""
        path = Path(path)
        lines = path.read_bytes().splitlines(keepends=True)
        rows = self._data_rows(lines)
        if not rows:
            return {"rows": []}
        picks = self._pick_rows(rows, intensity)
        for row in sorted(picks, reverse=True):
            lines.insert(row + 1, lines[row])
        atomic_write_bytes(path, b"".join(lines))
        return {"rows": picks}

    def swap_rows(self, path: "str | Path", intensity: int = 1) -> dict:
        """Swap seeded pairs of data rows (reordered IDs, nothing lost)."""
        path = Path(path)
        lines = path.read_bytes().splitlines(keepends=True)
        rows = self._data_rows(lines)
        if len(rows) < 2:
            return {"pairs": []}
        pairs: list[tuple[int, int]] = []
        for _ in range(intensity):
            a, b = (int(i) for i in self.rng.choice(rows, size=2, replace=False))
            lines[a], lines[b] = lines[b], lines[a]
            pairs.append((a, b))
        atomic_write_bytes(path, b"".join(lines))
        return {"pairs": pairs}

    # --- sidecar damage ---

    def sidecar_mismatch(self, path: "str | Path", intensity: int = 1) -> dict:
        """Desynchronise a ``.meta.json`` sidecar from its CSV.

        Rolls one of three deterministic-by-seed damages: perturb
        ``n_pois``, delete a required key, or corrupt the JSON itself.
        """
        path = Path(path)
        sidecar = (
            path if path.name.endswith(".meta.json")
            else path.with_name(path.name + ".meta.json")
        )
        text = sidecar.read_text(encoding="utf-8")
        mode = ("count", "missing_key", "torn_json")[int(self.rng.integers(0, 3))]
        if mode == "count":
            meta = json.loads(text)
            meta["n_pois"] = int(meta.get("n_pois", 0)) + int(
                self.rng.integers(1, 10 * intensity)
            )
            atomic_write_bytes(sidecar, json.dumps(meta, indent=2).encode())
        elif mode == "missing_key":
            meta = json.loads(text)
            victim = ("n_pois", "types", "bounds")[int(self.rng.integers(0, 3))]
            meta.pop(victim, None)
            atomic_write_bytes(sidecar, json.dumps(meta, indent=2).encode())
        else:
            cut = int(self.rng.integers(1, max(2, len(text) - 1)))
            atomic_write_bytes(sidecar, text[:cut].encode())
        return {"mode": mode, "sidecar": str(sidecar)}

    # --- helpers ---

    def _data_rows(self, lines: list[bytes]) -> list[int]:
        """Indices of data rows (everything after the header line)."""
        return list(range(1, len(lines)))

    def _pick_rows(self, rows: list[int], n: int) -> list[int]:
        n = min(n, len(rows))
        return sorted(
            int(i) for i in self.rng.choice(rows, size=n, replace=False)
        )

    @staticmethod
    def _replace(fields: list[str], slot: int, value: str) -> list[str]:
        out = list(fields)
        out[slot] = value
        return out

    def _numeric_slot(self, fields: list[str]) -> int:
        """A seeded middle slot (the coordinate fields in both formats)."""
        hi = max(2, len(fields) - 1)
        return int(self.rng.integers(1, hi))

    def _mutate_rows(
        self,
        path: "str | Path",
        intensity: int,
        mutate: "Callable[[list[str]], list[str]]",
    ) -> dict:
        path = Path(path)
        raw_lines = path.read_bytes().splitlines(keepends=True)
        rows = self._data_rows(raw_lines)
        if not rows:
            return {"rows": []}
        picks = self._pick_rows(rows, intensity)
        for row in picks:
            text = raw_lines[row].decode("utf-8").rstrip("\r\n")
            fields = text.split(",")
            raw_lines[row] = (",".join(mutate(fields)) + "\n").encode()
        atomic_write_bytes(path, b"".join(raw_lines))
        return {"rows": picks}
