"""The repository's end-to-end benchmark: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {figures-ml,figures-geo,serve-http}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the workload with no spans recorded and
prints every end-to-end metric; with ``--trace 1`` it runs the workload
untraced and then traced, and prints the per-layer metrics (self seconds
per layer, counts, and the tracing overhead).  Either way it checks the
program's outputs, prints a table and an environment record, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 1 when an output check fails and 2 when it cannot run at all.

The figures workloads time one run of their experiments, a fixed batch;
``--seconds`` sizes the serve-http phases (the bench stream it draws from
covers up to 28 s).

Workload processes get one BLAS/OpenMP thread; see ``DESIGN.json`` for
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The client side of serve-http imports numpy too: one BLAS thread here as well.
os.environ.update({name: "1" for name in THREAD_ENV})
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

from serve import percentile  # noqa: E402
from tracing import ID, NAME, INFO, START, END, aggregate, ancestors_named, covered_seconds, layer_seconds  # noqa: E402

WORKLOADS = ("figures-ml", "figures-geo", "serve-http")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_mean_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

_SPAN_METRICS = {
    # span name -> (seconds metric or None, calls metric or None)
    "experiments.fig2": ("experiments.fig2_s", None),
    "experiments.fig3": ("experiments.fig3_s", None),
    "experiments.fig6": ("experiments.fig6_s", None),
    "experiments.fig11_12": ("experiments.fig11_12_s", None),
    "experiments.persist": ("experiments.persist_s", None),
    "ml.binary_fit": ("ml.binary_fit_s", "ml.binary_fit_calls"),
    "ml.rbf_kernel": ("ml.rbf_kernel_s", "ml.rbf_kernel_calls"),
    "ml.decision_function": ("ml.decision_function_s", None),
    "poi.freq_batch": ("poi.freq_batch_s", "poi.freq_batch_calls"),
    "poi.anchor_freqs": ("poi.anchor_freqs_s", "poi.anchor_freqs_calls"),
    "poi.freq_bounds": ("poi.freq_bounds_s", None),
    "poi.city_build": ("poi.city_build_s", None),
    "datasets.sample_targets": ("datasets.sample_targets_s", "datasets.sample_targets_calls"),
    "geo.query_box": ("geo.query_box_s", "geo.query_box_calls"),
    "attacks.region_run_batch": ("attacks.region_run_batch_s", None),
    "attacks.fine_grained_run_batch": ("attacks.fine_grained_run_batch_s", None),
    "attacks.recovery_fit": ("attacks.recovery_fit_s", None),
    "attacks.recover_many": ("attacks.recover_many_s", None),
    "defense.dp_release": ("defense.dp_release_s", "defense.dp_release_calls"),
    "defense.cloak": ("defense.cloak_s", None),
    "defense.sanitize": ("defense.sanitize_s", "defense.sanitize_calls"),
    "defense.laplace_apply": ("defense.laplace_apply_s", None),
    "serve.http": ("serve.http_s", "serve.http_requests"),
    "serve.submit": ("serve.submit_s", "serve.submit_calls"),
    "serve.batch": ("serve.batch_s", "serve.batches"),
    "serve.ledger_spend_batch": ("serve.ledger_spend_batch_s", "serve.ledger_spend_batch_calls"),
    "serve.journal": ("serve.journal_s", "serve.journal_events"),
    "serve.finalize": ("serve.finalize_s", None),
    "core.vfs_fsync": ("core.vfs_fsync_s", "core.vfs_fsync_calls"),
}

#: (span name, summed span counter, metric) for counters the wrappers record.
_INFO_METRICS = (
    ("ml.binary_fit", "n", "ml.train_rows"),
    ("ml.rbf_kernel", "bytes", "ml.rbf_kernel_bytes"),
    ("poi.freq_batch", "n", "poi.freq_batch_rows"),
    ("serve.ledger_spend_batch", "n", "serve.ledger_spends"),
)

_OTHER_LAYER_METRICS = {
    "ml.train_rows": "count",
    "ml.rbf_kernel_bytes": "bytes",
    "poi.freq_batch_rows": "count",
    "poi.pyramid_share": "fraction",
    "serve.ledger_spends": "count",
    "serve.batch_fill": "rows",
    "serve.queue_wait_p50_ms": "ms",
    "serve.submit_p50_ms": "ms",
    "serve.http_overhead_ms": "ms",
    "serve.refused": "count",
    "serve.shed": "count",
    "serve.rejected": "count",
    "serve.degraded": "count",
    "core.vfs_write_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for seconds, calls in _SPAN_METRICS.values():
        units[seconds] = "s"
        if calls is not None:
            units[calls] = "count"
    units.update(_OTHER_LAYER_METRICS)
    for layer in ("experiments", "ml", "poi", "datasets", "geo", "attacks", "defense", "serve", "core"):
        units[f"layer.{layer}_s"] = "s"
    return units


#: Per-layer metrics: name -> unit.  Every workload reports every one.
PER_LAYER = _per_layer_units()


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: child_env()[name] for name in THREAD_ENV},
        "commit": commit,
        "seed": seed,
    }


def _spawn_json(cmd: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_figures(workload: str, work: Path, spans: "Path | None", setups: int) -> dict:
    """The workload process, then ``setups - 1`` set-up-only processes.

    The extra set-ups run after the measured process so that their
    start-up work cannot slow the measurement down.
    """
    env = child_env()
    cmd = [sys.executable, str(HERE / "figures.py"), workload, repr(time.monotonic()), str(work / "out")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    result = _spawn_json(cmd, env, 170)
    result["setup_samples_s"] = [result["setup_s"]]
    for _ in range(setups - 1):
        cmd = [sys.executable, str(HERE / "figures.py"), workload, repr(time.monotonic()), str(work / "out"), "--setup-only"]
        result["setup_samples_s"].append(_spawn_json(cmd, env, 120)["setup_s"])
    return result


def figures_outcome(runs: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over the experiments and digests of
    every workload process of one invocation."""
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, set] = {}
    for result in runs:
        for experiment_id, entry in result["experiments"].items():
            attempted += 1
            bad = [] if entry["status"] == "ok" else [f"{experiment_id} {entry['status']}: {entry['error']}"]
            bad += entry.get("violations", [])
            if bad:
                failed += 1
                problems += bad
            digests.setdefault(experiment_id, set()).add(entry.get("digest"))
    for experiment_id, seen in digests.items():
        attempted += 1
        if len(seen) != 1:
            failed += 1
            problems.append(f"{experiment_id}: rows differ between runs of one invocation")
    return attempted, failed, problems


def figures_metrics(result: dict) -> tuple[dict, dict]:
    latencies = result["op_latencies_s"]
    attempted, failed, _ = figures_outcome([result])
    values = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "wall_s": result["wall_s"],
        "op_mean_ms": statistics.fmean(latencies) * 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted,
    }
    samples = {
        "setup_s": len(result["setup_samples_s"]),
        "wall_s": 1,
        "op_mean_ms": len(latencies),
        "peak_rss_mb": 1,
        "success_rate": attempted,
    }
    return values, samples


def serve_outcome(result: dict) -> tuple[int, int, list[str]]:
    attempted = sum(p["attempted"] for p in result["phases"].values())
    failed = sum(p["failed"] for p in result["phases"].values())
    problems = [f"{name}: {p['failures']}" for name, p in result["phases"].items() if p["failed"]]
    return attempted, failed, problems + result["check_failures"]


def serve_metrics(result: dict) -> tuple[dict, dict]:
    attempted, failed, _ = serve_outcome(result)
    release = result["release_ms"]
    values = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "wall_s": result["wall_s"],
        "op_mean_ms": statistics.fmean(release),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted,
    }
    samples = {
        "setup_s": len(result["setup_samples_s"]),
        "wall_s": 1,
        "op_mean_ms": len(release),
        "peak_rss_mb": 1,
        "success_rate": attempted,
    }
    return values, samples


def layer_metrics(spans_doc: dict, wall_s: float, window: list[float]) -> dict:
    """Per-layer metrics from one traced run's spans (zero where a layer is idle)."""
    spans = spans_doc["spans"]
    metrics = {name: 0.0 for name in PER_LAYER}
    totals = aggregate(spans)
    for name, entry in totals.items():
        seconds, calls = _SPAN_METRICS[name]
        metrics[seconds] += entry["self_s"]
        if calls is not None:
            metrics[calls] += entry["calls"]
    for span_name, counter, metric in _INFO_METRICS:
        metrics[metric] = totals.get(span_name, {}).get(counter, 0.0)
    for layer, seconds in layer_seconds(spans).items():
        metrics[f"layer.{layer}_s"] = seconds
    metrics.update(spans_doc["counters"])
    in_batch = ancestors_named(spans, "serve.batch")
    engine_rows = [s[INFO]["n"] for s in spans if s[NAME] == "poi.freq_batch" and s[ID] in in_batch]
    if engine_rows:
        metrics["serve.batch_fill"] = sum(engine_rows) / len(engine_rows)
    waits = [w for s in spans if s[NAME] == "serve.batch" for w in s[INFO]["queue_waits_s"]]
    if waits:
        metrics["serve.queue_wait_p50_ms"] = percentile(waits, 50) * 1000.0
    metrics["trace.unattributed_s"] = wall_s - covered_seconds(spans, *window)
    return metrics


def also_measured(attempted: int, failed: int, result: dict) -> dict:
    """Figures printed beside the end-to-end metrics: ``name -> (value, unit, samples)``.

    Serve-http prints them under the names the issue gives them
    (``release_p50_ms``, ``throughput_rps``, ...), the figures as
    ``op_p50_ms``, ``throughput_ops`` (settings per second).  Throughput is
    operations per second of ``wall_s``; both workloads time a fixed batch
    of operations, so it carries no information that ``wall_s`` does not,
    and only ``wall_s`` is bounded.  The percentiles of
    the operation latencies are not bounded: the figures have 16 and 76
    settings per run, too few for a 99th percentile, and their median
    covers only the short settings, whose few seconds the host's speed
    drift moves more than the whole run (``op_mean_ms`` is bounded instead).
    """
    extra = {"error_rate": (failed / attempted, "fraction", attempted)}
    if "op_latencies_s" in result:
        latencies = [x * 1000.0 for x in result["op_latencies_s"]]
        extra["op_p50_ms"] = (percentile(latencies, 50), "ms", len(latencies))
        extra["op_p99_ms"] = (percentile(latencies, 99), "ms", len(latencies))
        extra["throughput_ops"] = (len(latencies) / result["wall_s"], "1/s", len(latencies))
    else:
        extra["release_p50_ms"] = (percentile(result["release_ms"], 50), "ms", len(result["release_ms"]))
        extra["release_p99_ms"] = (percentile(result["release_ms"], 99), "ms", len(result["release_ms"]))
        extra["throughput_rps"] = (result["completed_closed"] / result["wall_s"], "req/s", result["completed_closed"])
        extra["submit_p50_ms"] = (percentile(result["submit_ms"], 50), "ms", len(result["submit_ms"]))
        extra["generator_lateness_p99_ms"] = (
            percentile(result["lateness_ms"], 99), "ms", len(result["lateness_ms"])
        )
    return extra


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict, int, int, list[str], dict]:
    """Run the workload; ``(metrics, samples, attempted, failed, problems, record)``."""
    if workload == "serve-http":
        from serve import make_requests, phase_sizes, run_pass

        requests = make_requests(seed)
        if sum(phase_sizes(seconds)) > len(requests):
            raise BenchError(f"--seconds {seconds:g} needs {sum(phase_sizes(seconds))} requests; "
                             f"the bench stream has {len(requests)}")
        env = child_env()
        result = run_pass(requests, seed, seconds, work / "untraced", env, 1 if trace else SETUPS)
        attempted, failed, problems = serve_outcome(result)
        values, samples = serve_metrics(result)
        record = {"phases": result["phases"], "status": result["status"],
                  "also_measured": also_measured(attempted, failed, result)}
        if not trace:
            return values, samples, attempted, failed, problems, record
        spans_path = work / "spans.json"
        traced = run_pass(requests, seed, seconds, work / "traced", env, 1, spans_path)
        a2, f2, p2 = serve_outcome(traced)
        spans_doc = json.loads(spans_path.read_text())
        metrics = layer_metrics(spans_doc, traced["wall_s"], traced["window"])
        fates, ladder = traced["status"]["fates"], traced["status"]["ladder"]
        submit_spans = [s[END] - s[START] for s in spans_doc["spans"] if s[NAME] == "serve.submit"]
        metrics.update({
            "serve.refused": fates["refused"],
            "serve.shed": fates["shed"],
            "serve.rejected": fates["rejected"],
            "serve.degraded": ladder["n_degraded"],
            "serve.submit_p50_ms": percentile(traced["submit_ms"], 50),
            "serve.http_overhead_ms": percentile(traced["rtt_ms"], 50) - percentile(submit_spans, 50) * 1000.0,
            "trace.overhead_s": traced["wall_s"] - result["wall_s"],
        })
        return metrics, {}, attempted + a2, failed + f2, problems + p2, record

    result = run_figures(workload, work / "untraced", None, 1 if trace else SETUPS)
    attempted, failed, problems = figures_outcome([result])
    values, samples = figures_metrics(result)
    record = {"experiments": result["experiments"], "experiment_seed": result["experiment_seed"],
              "workload_blas_threads": result["blas_threads"],
              "also_measured": also_measured(attempted, failed, result)}
    if not trace:
        return values, samples, attempted, failed, problems, record
    spans_path = work / "spans.json"
    traced = run_figures(workload, work / "traced", spans_path, 1)
    # The traced rows must match the untraced ones: tracing may not change results.
    attempted, failed, problems = figures_outcome([result, traced])
    metrics = layer_metrics(json.loads(spans_path.read_text()), traced["wall_s"], traced["window"])
    metrics["trace.overhead_s"] = traced["wall_s"] - values["wall_s"]
    return metrics, {}, attempted, failed, problems, record


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    # Byte-compile once, outside every measurement, so no timed process pays it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(HERE)], check=False,
                   stdout=subprocess.DEVNULL)
    work = Path.cwd() / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, samples, attempted, failed, problems, record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except (BenchError, RuntimeError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {args.workload} could not run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    units = PER_LAYER if args.trace else END_TO_END
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} ==")
    for name, unit in units.items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}{extra}")
    for name, (value, unit, n) in record.pop("also_measured").items():
        print(f"{name:34s} {value:>16.6g} {unit}  (n={n}, also measured)")
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    print("record: " + json.dumps(record, sort_keys=True, default=str))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
