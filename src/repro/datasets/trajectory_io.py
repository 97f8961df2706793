"""Trajectory log persistence (CSV: ``user_id,t,x,y``).

Lets a synthesized fleet (T-drive, road-network, check-ins) be exported
and reloaded exactly — and lets users plug in real mobility logs in the
same format.  Mirrors :mod:`repro.poi.io`: :func:`save_trajectory_log`
writes atomically (temp-file + rename), and :func:`load_trajectory_log`
is a thin wrapper over the validating streaming loader in
:mod:`repro.ingest.loaders`, so malformed rows surface as typed
:class:`~repro.core.errors.IngestError` subtypes carrying the file path
and 1-based row number.

Floats are serialized with :func:`repr` precision, so a save/load
round-trip reproduces every coordinate and timestamp bit-identically.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from pathlib import Path

from repro.core.atomic import atomic_writer
from repro.datasets.trajectory import Trajectory
from repro.ingest.loaders import TRAJECTORY_LOG_HEADER, ingest_trajectory_log

__all__ = ["save_trajectory_log", "load_trajectory_log"]


def save_trajectory_log(trajectories: Sequence[Trajectory], path: "str | Path") -> None:
    """Write *trajectories* to *path* as ``user_id,t,x,y`` rows, atomically.

    Rows are emitted per trajectory in sample order; coordinates and
    timestamps keep full ``repr`` precision so the log round-trips
    bit-identically through :func:`load_trajectory_log`.
    """
    path = Path(path)
    with atomic_writer(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_LOG_HEADER)
        for traj in trajectories:
            for point in traj.points:
                writer.writerow(
                    [
                        traj.user_id,
                        repr(float(point.timestamp)),
                        repr(float(point.location.x)),
                        repr(float(point.location.y)),
                    ]
                )


def load_trajectory_log(
    path: "str | Path",
    *,
    policy: str = "strict",
    quarantine_path: "str | Path | None" = None,
) -> list[Trajectory]:
    """Load a log written by :func:`save_trajectory_log`.

    Every record is validated under *policy* (``strict`` / ``repair`` /
    ``quarantine``, see :mod:`repro.ingest`); the per-run
    :class:`~repro.ingest.report.IngestReport` flows to the provenance
    collector.
    """
    trajectories, _report = ingest_trajectory_log(
        path, policy=policy, quarantine_path=quarantine_path
    )
    return trajectories
