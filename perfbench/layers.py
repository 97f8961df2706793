"""Where the benchmark's spans come from: wrappers around each layer's API.

Methods are wrapped on their classes; functions are patched at every
module that imported them by name, so every call site is covered.  The
span names are the per-layer metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.vfs import DurableVFS, VFSFile
from tracing import Tracer


def _n_items(args: tuple, kwargs: dict, result: Any) -> dict:
    """Length of a method's first argument: query rows, training rows, spends."""
    return {"n": len(args[1] if len(args) > 1 else next(iter(kwargs.values())))}


def _kernel_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": len(args[0]) * len(args[1]) * 8}


def pyramid_share(plan_calls: list[dict]) -> float:
    """Share of Freq queries the engine answered on its pyramid tier.

    *plan_calls* are the ``calls`` entries of
    :func:`repro.poi.engine.summarize_query_plans`.
    """
    total = sum(call["n_queries"] for call in plan_calls)
    pyramid = sum(call["n_queries"] for call in plan_calls if call["tier"] == "pyramid")
    return pyramid / total if total else 0.0


def install_engine_layers(tracer: Tracer) -> None:
    """The ``poi`` and ``defense`` wrappers that figures and serve share."""
    from repro.defense.laplace_release import LaplaceHistogramDefense
    from repro.defense.sanitization import Sanitizer
    from repro.poi.cities import CITY_BUILDERS
    from repro.poi.database import POIDatabase

    for name, build in CITY_BUILDERS.items():
        CITY_BUILDERS[name] = tracer.wrap("poi.city_build", build)

    tracer.patch(POIDatabase, "freq_batch", "poi.freq_batch", info=_n_items)
    tracer.patch(POIDatabase, "anchor_freqs", "poi.anchor_freqs")
    tracer.patch(POIDatabase, "freq_bounds", "poi.freq_bounds")
    tracer.patch(Sanitizer, "sanitize_vector", "defense.sanitize")
    tracer.patch(LaplaceHistogramDefense, "apply", "defense.laplace_apply")


def install_figure_layers(tracer: Tracer) -> None:
    """Wrap every layer a figure experiment runs through."""
    import repro.datasets
    import repro.datasets.targets
    import repro.ml
    import repro.experiments.common
    import repro.experiments.runner
    import repro.experiments.supervisor
    import repro.ml.kernels
    import repro.ml.svc
    import repro.ml.svr
    from repro.attacks.fine_grained import FineGrainedAttack
    from repro.attacks.recovery import SanitizationRecoveryAttack
    from repro.attacks.region import RegionAttack
    from repro.defense.cloaking import AdaptiveIntervalCloak
    from repro.defense.dp_release import DPReleaseMechanism
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.results import ExperimentResult
    from repro.geo.grid_index import GridIndex
    from repro.ml.svc import BinarySVC

    install_engine_layers(tracer)
    for experiment_id in ("fig2", "fig3", "fig6", "fig11_12"):
        EXPERIMENTS[experiment_id] = tracer.wrap(
            f"experiments.{experiment_id}", EXPERIMENTS[experiment_id]
        )
    tracer.patch(ExperimentResult, "save", "experiments.persist")
    tracer.patch(repro.experiments.runner, "write_checkpoint", "experiments.persist")
    tracer.patch(repro.experiments.supervisor, "clear_shard_checkpoints", "experiments.persist")

    tracer.patch(BinarySVC, "fit", "ml.binary_fit", info=_n_items)
    tracer.patch(BinarySVC, "decision_function", "ml.decision_function")
    kernel = tracer.wrap("ml.rbf_kernel", repro.ml.kernels.rbf_kernel, info=_kernel_bytes)
    for module in (repro.ml.kernels, repro.ml.svc, repro.ml.svr, repro.ml):
        module.rbf_kernel = kernel

    targets = tracer.wrap("datasets.sample_targets", repro.datasets.targets.sample_targets)
    for module in (repro.datasets.targets, repro.datasets, repro.experiments.common):
        module.sample_targets = targets

    tracer.patch(GridIndex, "query_box", "geo.query_box")
    tracer.patch(RegionAttack, "run_batch", "attacks.region_run_batch")
    tracer.patch(FineGrainedAttack, "run_batch", "attacks.fine_grained_run_batch")
    tracer.patch(SanitizationRecoveryAttack, "fit", "attacks.recovery_fit")
    tracer.patch(SanitizationRecoveryAttack, "recover_many", "attacks.recover_many")
    tracer.patch(DPReleaseMechanism, "release", "defense.dp_release")
    tracer.patch(AdaptiveIntervalCloak, "cloak", "defense.cloak")


def install_serve_layers(tracer: Tracer, clock_now: Any) -> None:
    """Wrap the serve tier, its ledger and journal, and the shared engine layers.

    ``serve.batch`` wraps the dispatcher's per-batch step: it is the only
    place where a batch exists as a unit, so it records the batch size and
    each job's queue wait (admission to the start of its batch).
    """
    from repro.serve.dispatcher import MicroBatchDispatcher
    from repro.serve.httpapi import ServeHTTPServer
    from repro.serve.jobs import JobStore
    from repro.serve.journal import ServeJournal
    from repro.serve.ledger import BudgetLedger
    from repro.serve.service import ReleaseService

    install_engine_layers(tracer)

    def submitted_job(args: tuple, kwargs: dict, result: Any) -> Any:
        job = getattr(result, "job", None)
        return None if job is None else job.job_id

    # One span per HTTP request: parsing, the handler and writing the response.
    tracer.patch(ServeHTTPServer, "finish_request", "serve.http")
    tracer.patch(ReleaseService, "submit", "serve.submit", request=submitted_job)
    tracer.patch(BudgetLedger, "spend_batch", "serve.ledger_spend_batch", info=_n_items)
    tracer.patch(ServeJournal, "event", "serve.journal")
    tracer.patch(JobStore, "finalize", "serve.finalize")

    def batch_info(args: tuple, kwargs: dict, result: Any) -> dict:
        batch = args[1]
        started = start_of.pop(id(batch))
        return {"queue_waits_s": [started - job.submitted_at for job in batch]}

    start_of: dict[int, float] = {}
    process_batch = MicroBatchDispatcher._process_batch

    def stamped(self: Any, batch: list) -> Any:
        start_of[id(batch)] = clock_now()
        return process_batch(self, batch)

    MicroBatchDispatcher._process_batch = tracer.wrap("serve.batch", stamped, info=batch_info)


class TimingVFS(DurableVFS):
    """The production durable-I/O layer, with a span per fsync and a byte count."""

    def __init__(self, tracer: Tracer) -> None:
        self._lock = threading.Lock()
        self.write_bytes = 0
        self.fsync = tracer.wrap("core.vfs_fsync", super().fsync)  # type: ignore[method-assign]

    def _write(self, fh: VFSFile, data: "str | bytes") -> int:
        written = super()._write(fh, data)
        with self._lock:
            self.write_bytes += len(data.encode("utf-8") if isinstance(data, str) else data)
        return written
