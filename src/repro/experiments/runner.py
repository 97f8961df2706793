"""Crash-safe multi-experiment runner: keep-going, checkpoints, resume.

``poiagg run all`` used to die on the first failing experiment and start
from scratch on re-run.  This module gives the batch loop production
semantics:

* **keep-going** — collect per-experiment failures instead of aborting,
  report a summary, signal failure through the exit code at the end;
* **checkpoints** — after each successful experiment an atomic JSON
  checkpoint is written under ``<out>/.checkpoints/``, recording what
  completed with which scale and seed;
* **resume** — a re-run skips every experiment whose checkpoint matches
  the requested ``(experiment, scale, seed)``, so a crashed 10-experiment
  batch restarts at the first incomplete one.

Supervised sharded runs (:mod:`repro.experiments.supervisor`) compose
with this from below: they checkpoint each completed *shard* under
``<out>/.checkpoints/shards/``, so an experiment that dies mid-sweep
resumes at the first incomplete shard; once the experiment itself
checkpoints here, its shard checkpoints are cleared as subsumed.

Exit codes are part of the CLI contract: ``0`` all experiments succeeded
(or were skipped via a checkpoint), ``1`` at least one failed, ``2`` the
invocation itself was bad (unknown experiment, ``--resume`` without
``--out``).
"""

# This module IS the sanctioned timing boundary: elapsed_s and
# completed_at are provenance telemetry recorded outside the checkpointed
# experiment payload (resume matches on (experiment, scale, seed), never
# on timestamps), so reading the wall clock here cannot break resume
# bit-identity.
# poiagg: disable=PL005

from __future__ import annotations

import json
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.atomic import atomic_write_text
from repro.core.errors import ConfigError
from repro.experiments.registry import run_experiment
from repro.experiments.results import ExperimentResult
from repro.experiments.scale import ExperimentScale
from repro.ingest.report import collecting_ingest_reports
from repro.poi.engine import collecting_query_plans, summarize_query_plans

__all__ = [
    "EXIT_OK",
    "EXIT_FAILURES",
    "EXIT_USAGE",
    "ExperimentRun",
    "RunSummary",
    "checkpoint_path",
    "write_checkpoint",
    "load_checkpoint",
    "run_many",
]

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2

_CHECKPOINT_DIR = ".checkpoints"


@dataclass(frozen=True)
class ExperimentRun:
    """Fate of one experiment inside a batch."""

    experiment_id: str
    status: str  # "ok" | "failed" | "skipped"
    elapsed_s: float = 0.0
    error: "str | None" = None
    result: "ExperimentResult | None" = None


@dataclass
class RunSummary:
    """Everything a caller needs to report and exit correctly."""

    runs: list[ExperimentRun] = field(default_factory=list)

    def _with_status(self, status: str) -> list[ExperimentRun]:
        return [run for run in self.runs if run.status == status]

    @property
    def n_ok(self) -> int:
        return len(self._with_status("ok"))

    @property
    def n_skipped(self) -> int:
        return len(self._with_status("skipped"))

    @property
    def failed(self) -> list[ExperimentRun]:
        return self._with_status("failed")

    @property
    def exit_code(self) -> int:
        return EXIT_FAILURES if self.failed else EXIT_OK

    def render(self) -> str:
        """One-line-per-experiment batch summary."""
        lines = [
            f"ran {self.n_ok} ok, {self.n_skipped} skipped (checkpointed), "
            f"{len(self.failed)} failed"
        ]
        for run in self.failed:
            lines.append(f"  FAILED {run.experiment_id}: {run.error}")
        return "\n".join(lines)


def checkpoint_path(out: Path, experiment_id: str, scale: ExperimentScale) -> Path:
    """Where the checkpoint for ``(experiment, scale)`` lives."""
    return Path(out) / _CHECKPOINT_DIR / f"{experiment_id}_{scale.name}.json"


def write_checkpoint(path: Path, payload: dict) -> Path:
    """Atomically persist *payload* (temp file, fsync, then rename over).

    The rename alone is not enough: os.replace publishes the name, but a
    crash before the data blocks hit disk can surface a committed-but-
    torn checkpoint that resume would then trust (PL014 caught exactly
    this here). atomic_write_text fsyncs the temp file before renaming.
    """
    path = Path(path)
    # default=float: shard checkpoints embed result rows, which may hold
    # numpy scalars; json round-trips their repr exactly.
    return atomic_write_text(path, json.dumps(payload, indent=2, default=float))


def load_checkpoint(path: Path) -> "dict | None":
    """Read a checkpoint; a missing or corrupt file reads as 'no checkpoint'."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _matches(checkpoint: "dict | None", experiment_id: str, scale: ExperimentScale) -> bool:
    if checkpoint is None:
        return False
    return (
        checkpoint.get("experiment_id") == experiment_id
        and checkpoint.get("scale") == scale.name
        and checkpoint.get("seed") == scale.seed
    )


def run_many(
    experiment_ids: Sequence[str],
    scale: ExperimentScale,
    *,
    out: "Path | None" = None,
    keep_going: bool = False,
    resume: bool = False,
    run_fn: "Callable[[str, ExperimentScale], ExperimentResult] | None" = None,
    after: "Callable[[ExperimentRun], None] | None" = None,
) -> RunSummary:
    """Run a batch of experiments with crash-safe semantics.

    Parameters
    ----------
    out:
        Directory for result JSONs and checkpoints.  Required for
        ``resume``; without it nothing is persisted.
    keep_going:
        Collect failures and continue instead of re-raising the first one.
    resume:
        Skip experiments with a matching ``(experiment, scale, seed)``
        checkpoint under *out*.
    run_fn:
        The per-experiment runner (defaults to the registry's
        :func:`run_experiment`); injectable so callers can layer sharding
        or tests can inject failures.
    after:
        Callback invoked with each :class:`ExperimentRun` as it finishes
        (for incremental CLI output).
    """
    if resume and out is None:
        raise ConfigError("--resume needs --out: checkpoints live in the output directory")
    run_fn = run_fn if run_fn is not None else run_experiment
    summary = RunSummary()

    for experiment_id in experiment_ids:
        ckpt_path = (
            checkpoint_path(out, experiment_id, scale) if out is not None else None
        )
        if resume and ckpt_path is not None and _matches(load_checkpoint(ckpt_path), experiment_id, scale):
            run = ExperimentRun(experiment_id, "skipped")
        else:
            start = time.time()
            try:
                # Every dataset load inside the experiment reports to the
                # collector; the reports land in result.provenance["ingest"]
                # alongside the shard reports, so a result JSON records
                # exactly which files fed it, under which policy, with
                # which record fates.
                # Freq queries likewise report their QueryPlan (engine
                # tier, kernel, candidate counts) to a collector; the
                # summary lands in provenance["freq_engine"], so a result
                # records which engine answered its queries.
                with collecting_ingest_reports() as ingest_reports, \
                        collecting_query_plans() as query_plans:
                    result = run_fn(experiment_id, scale)
                if ingest_reports:
                    result.provenance["ingest"] = [
                        report.as_dict() for report in ingest_reports
                    ]
                if query_plans:
                    result.provenance["freq_engine"] = summarize_query_plans(query_plans)
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 — the whole point is containment
                run = ExperimentRun(
                    experiment_id,
                    "failed",
                    elapsed_s=time.time() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
                summary.runs.append(run)
                if after is not None:
                    after(run)
                if not keep_going:
                    return summary
                continue
            elapsed = time.time() - start
            try:
                if out is not None:
                    result.save(Path(out) / f"{experiment_id}_{scale.name}.json")
                    write_checkpoint(
                        ckpt_path,
                        {
                            "experiment_id": experiment_id,
                            "scale": scale.name,
                            "seed": scale.seed,
                            "elapsed_s": elapsed,
                            "completed_at": time.time(),
                        },
                    )
                    # The experiment-level checkpoint subsumes any per-shard
                    # checkpoints a supervised run_sharded left behind; drop
                    # them so a later sweep cannot resume from stale partials.
                    # (Function-level import: supervisor imports this module.)
                    from repro.experiments.supervisor import clear_shard_checkpoints

                    clear_shard_checkpoints(out, experiment_id, scale)
            except OSError as exc:
                # Disk pressure fails this experiment, never the batch:
                # atomic_write guarantees nothing torn was published, so
                # a re-run (without a checkpoint to skip on) redoes it.
                run = ExperimentRun(
                    experiment_id,
                    "failed",
                    elapsed_s=elapsed,
                    error=f"persist refused by disk: {type(exc).__name__}: {exc}",
                )
                summary.runs.append(run)
                if after is not None:
                    after(run)
                if not keep_going:
                    return summary
                continue
            run = ExperimentRun(experiment_id, "ok", elapsed_s=elapsed, result=result)
        summary.runs.append(run)
        if after is not None:
            after(run)
    return summary
