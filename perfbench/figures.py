"""The figures workload process: regenerate figures through ``run_many``.

Spawned by ``run.py`` with one BLAS/OpenMP thread, it imports the program,
builds the workload's cities through ``CITY_BUILDERS`` (that is *ready*),
then runs the workload's experiments once, unsharded in this one process,
with ``run_many(..., out=<dir>)`` — the ``poiagg run --out`` path — and
checks every result.  It prints one JSON object as its last line.

Usage: python3 perfbench/figures.py WORKLOAD SPAWNED_AT OUT_DIR
       [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from checks import figure_violations, result_digest

#: Experiments per workload; both build Beijing and NYC.
WORKLOADS = {"figures-ml": ("fig2", "fig3"), "figures-geo": ("fig6", "fig11_12")}
CITIES = ("beijing", "nyc")

#: Row columns naming one setting (one cell) of each figure.
SETTING_KEYS = {
    "fig2": ("city", "r_km"),
    "fig3": ("city", "r_km"),
    "fig6": ("dataset", "r_km"),
    "fig11_12": ("dataset", "beta", "epsilon"),
}


def peak_rss_mb() -> float:
    """High-water resident set size of this process (``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setting_latencies(starts: dict, events: list) -> list[float]:
    """Seconds each figure setting took: from the previous setting's last row
    (or the experiment's start) to this setting's last row."""
    latencies: list[float] = []
    by_experiment: dict[str, list] = {}
    for stamp, experiment_id, key in events:
        by_experiment.setdefault(experiment_id, []).append((stamp, key))
    for experiment_id, rows in by_experiment.items():
        previous = starts[experiment_id]
        for i, (stamp, key) in enumerate(rows):
            if i + 1 < len(rows) and rows[i + 1][1] == key:
                continue
            latencies.append(stamp - previous)
            previous = stamp
    return latencies


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("out", type=str)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.results import ExperimentResult
    from repro.experiments.runner import run_many
    from repro.core.vfs import install_vfs
    from repro.experiments.scale import DEFAULT_SEED, SCALES
    from repro.poi import cities

    tracer = vfs = None
    if args.spans is not None:
        from layers import TimingVFS, install_figure_layers
        from tracing import Tracer

        tracer = Tracer()
        install_figure_layers(tracer)
        vfs = TimingVFS(tracer)

    ids = WORKLOADS[args.workload]
    scale = SCALES["ci"].with_seed(DEFAULT_SEED)
    built = [cities.CITY_BUILDERS[name](scale.seed) for name in CITIES]
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # One timestamp per experiment start and per result row: the per-setting
    # latencies come from these, in traced and untraced runs alike.
    starts: dict[str, float] = {}
    events: list = []
    for experiment_id in ids:
        def started(*a: object, _run=EXPERIMENTS[experiment_id], _id=experiment_id, **k: object):
            if tracer is not None:
                tracer.set_request(_id)
            starts[_id] = time.monotonic()
            return _run(*a, **k)

        EXPERIMENTS[experiment_id] = started
    add_row = ExperimentResult.add_row

    def stamped_add_row(self: ExperimentResult, **values: object) -> None:
        add_row(self, **values)
        key = tuple(values.get(column) for column in SETTING_KEYS[self.experiment_id])
        events.append((time.monotonic(), self.experiment_id, key))

    ExperimentResult.add_row = stamped_add_row  # type: ignore[method-assign]

    # Whatever the city builds memoised is work the experiments must do themselves.
    for city in built:
        city.database.clear_cache()
    with install_vfs(vfs) if vfs is not None else contextlib.nullcontext():
        t0 = time.monotonic()
        summary = run_many(ids, scale, out=args.out, keep_going=True)
        t1 = time.monotonic()
    experiments = {}
    for run in summary.runs:
        entry: dict = {"status": run.status, "error": run.error}
        if run.result is not None:
            entry["digest"] = result_digest(run.experiment_id, run.result.config, run.result.rows)
            entry["violations"] = figure_violations(run.experiment_id, run.result.rows)
        experiments[run.experiment_id] = entry

    if tracer is not None:
        from layers import pyramid_share

        plan_calls = [
            call
            for run in summary.runs
            if run.result is not None
            for call in run.result.provenance.get("freq_engine", {}).get("calls", [])
        ]
        counters = {"core.vfs_write_bytes": vfs.write_bytes, "poi.pyramid_share": pyramid_share(plan_calls)}
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.export(), "counters": counters}, fh)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "wall_s": t1 - t0,
        "window": [t0, t1],
        "op_latencies_s": setting_latencies(starts, events),
        "experiments": experiments,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "experiment_seed": scale.seed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
