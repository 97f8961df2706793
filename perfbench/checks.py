"""Output checks: the figure-shape predicates, a result digest, and release checks.

The predicates restate the assertions of ``benchmarks/test_bench_fig2.py``,
``test_bench_fig3.py``, ``test_bench_fig6.py``, ``test_bench_fig11.py`` and
``test_bench_fig12.py`` as functions that return the list of violations, so
a failed shape is counted instead of raised.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Sequence
from statistics import fmean
from typing import Any


def _filter(rows: Sequence[dict], **criteria: Any) -> list[dict]:
    return [row for row in rows if all(row.get(k) == v for k, v in criteria.items())]


def _fig2(rows: Sequence[dict]) -> list[str]:
    return [f"fig2 mean_accuracy <= 0.9: {row}" for row in rows if not row["mean_accuracy"] > 0.9]


def _fig3(rows: Sequence[dict]) -> list[str]:
    bad = []
    for city in ("beijing", "nyc"):
        rates = {
            variant: [r["success_rate"] for r in _filter(rows, city=city, variant=variant)]
            for variant in ("w/o protection", "sanitized", "recovered")
        }
        plain, sanitized, recovered = rates.values()
        if not plain or not plain[0] < plain[-1]:
            bad.append(f"fig3 {city}: undefended success does not grow with r")
        if not fmean(sanitized) < fmean(plain):
            bad.append(f"fig3 {city}: sanitization does not lower success")
        if not fmean(recovered) >= fmean(sanitized) - 0.02:
            bad.append(f"fig3 {city}: recovery does not win back the sanitized gap")
    return bad


def _fig6(rows: Sequence[dict]) -> list[str]:
    fracs = [row["frac_under_quarter"] for row in rows if row.get("n_success", 0) >= 10]
    if not fracs:
        return ["fig6: no setting produced enough successful attacks"]
    bad = [] if fmean(fracs) > 0.6 else [f"fig6: mean frac_under_quarter {fmean(fracs)} <= 0.6"]
    bad += [
        f"fig6: search area above baseline: {row}"
        for row in rows
        if row.get("n_success", 0) > 0 and not row["mean_km2"] <= row["baseline_area_km2"] + 1e-9
    ]
    return bad


def _fig11_12(rows: Sequence[dict]) -> list[str]:
    bad = []
    for dataset in ("bj_tdrive", "nyc_foursquare"):
        def mean(column: str, **criteria: Any) -> float:
            return fmean(r[column] for r in _filter(rows, dataset=dataset, **criteria))

        if not mean("success_rate", epsilon=0.2) < mean("success_rate", epsilon=2.0):
            bad.append(f"fig11 {dataset}: success does not rise with epsilon")
        if not mean("success_rate", beta=0.05) <= mean("success_rate", beta=0.0) + 0.02:
            bad.append(f"fig11 {dataset}: the largest beta defends worse than none")
        if not mean("jaccard", epsilon=2.0) > mean("jaccard", epsilon=0.2):
            bad.append(f"fig12 {dataset}: Top-10 Jaccard does not rise with epsilon")
        at_eps = [r["jaccard"] for r in _filter(rows, dataset=dataset, epsilon=1.0)]
        if not max(at_eps) - min(at_eps) < 0.25:
            bad.append(f"fig12 {dataset}: beta moves the Jaccard by >= 0.25")
    return bad


PREDICATES: dict[str, Callable[[Sequence[dict]], list[str]]] = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig6": _fig6,
    "fig11_12": _fig11_12,
}


def figure_violations(experiment_id: str, rows: Sequence[dict]) -> list[str]:
    """Every shape predicate of the figure that *rows* fails (empty: all hold)."""
    try:
        return PREDICATES[experiment_id](rows)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{experiment_id}: rows do not have the figure's shape ({type(exc).__name__}: {exc})"]


def result_digest(experiment_id: str, config: dict, rows: Sequence[dict]) -> str:
    """SHA-256 of the result's rows and config; provenance (timings) is left out."""
    canonical = json.dumps(
        {"experiment_id": experiment_id, "config": config, "rows": list(rows)},
        sort_keys=True, separators=(",", ":"), default=float,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def release_violation(
    defense: str, result: "Sequence[float] | None", expected: "Sequence[float] | None", n_types: int
) -> "str | None":
    """Why a served release vector is wrong, or ``None`` when it is right.

    ``raw`` and ``sanitize`` results must equal the vector the benchmark
    recomputed; ``laplace`` noise is keyed on the job id, so only its
    length and finiteness are checked.
    """
    if result is None:
        return f"{defense}: completed job has no result"
    if len(result) != n_types:
        return f"{defense}: result has {len(result)} entries, expected {n_types}"
    if defense == "laplace":
        if not all(math.isfinite(v) for v in result):
            return "laplace: result is not finite"
        return None
    if expected is None:
        return f"{defense}: nothing to compare against"
    if [float(v) for v in result] != [float(v) for v in expected]:
        return f"{defense}: result differs from the recomputed vector"
    return None
