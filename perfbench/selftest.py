"""Fast self-tests of the benchmark itself (a few seconds, no workload run).

Usage, from the repository root: python3 perfbench/selftest.py

They check that the metric names and units match ``BENCHMARK.json``, that
planted wrong outputs (a perturbed figure row, a perturbed ``raw`` vector)
are caught, the self-time arithmetic on a synthetic span tree, and that
the seed alone determines the generated serve inputs.
"""

from __future__ import annotations

import copy
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from checks import figure_violations, release_violation, result_digest  # noqa: E402
from tracing import Tracer, covered_seconds, layer_seconds, self_times  # noqa: E402


def _good_rows() -> dict[str, list[dict]]:
    """Rows shaped like each figure's, satisfying its predicates."""
    fig2 = [{"city": c, "r_km": r, "mean_accuracy": 0.97} for c in ("beijing", "nyc") for r in (0.5, 4.0)]
    fig3 = [
        {"city": c, "r_km": r, "variant": v, "success_rate": s}
        for c in ("beijing", "nyc")
        for r, base in ((0.5, 0.2), (4.0, 0.6))
        for v, s in (("w/o protection", base), ("sanitized", 0.1), ("recovered", base - 0.05))
    ]
    fig6 = [
        {"dataset": d, "r_km": 1.0, "n_success": 50, "frac_under_quarter": 0.8,
         "mean_km2": 0.5, "baseline_area_km2": 3.14}
        for d in ("bj_tdrive", "nyc_random")
    ]
    fig11_12 = [
        {"dataset": d, "beta": b, "epsilon": e, "success_rate": 0.1 * e - b, "jaccard": 0.3 + 0.2 * e}
        for d in ("bj_tdrive", "nyc_foursquare")
        for b in (0.0, 0.05)
        for e in (0.2, 1.0, 2.0)
    ]
    return {"fig2": fig2, "fig3": fig3, "fig6": fig6, "fig11_12": fig11_12}


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self) -> None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class PlantedWrongOutputs(unittest.TestCase):
    def test_good_rows_pass(self) -> None:
        for experiment_id, rows in _good_rows().items():
            self.assertEqual(figure_violations(experiment_id, rows), [], experiment_id)

    def test_perturbed_figure_row_is_caught(self) -> None:
        plants = {
            "fig2": (0, "mean_accuracy", 0.5),
            "fig3": (3, "success_rate", 0.0),  # beijing 4 km undefended below 0.5 km
            "fig6": (1, "mean_km2", 9.0),
            "fig11_12": (4, "jaccard", 0.9),  # beta moves the Top-10 Jaccard
        }
        for experiment_id, (index, column, value) in plants.items():
            rows = copy.deepcopy(_good_rows()[experiment_id])
            rows[index][column] = value
            self.assertNotEqual(figure_violations(experiment_id, rows), [], experiment_id)

    def test_perturbed_row_changes_digest_and_fails_the_run(self) -> None:
        rows = _good_rows()["fig6"]
        planted = copy.deepcopy(rows)
        planted[0]["mean_km2"] += 1e-12
        good, bad = result_digest("fig6", {}, rows), result_digest("fig6", {}, planted)
        self.assertNotEqual(good, bad)
        runs = [
            {"experiments": {"fig6": {"status": "ok", "error": None, "digest": d, "violations": []}}}
            for d in (good, bad)
        ]
        attempted, failed, problems = run.figures_outcome(runs)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("differ", problems[0])

    def test_perturbed_raw_vector_is_caught(self) -> None:
        from repro.defense.sanitization import Sanitizer
        from repro.experiments.scale import DEFAULT_SEED
        from repro.geo.point import Point
        from repro.poi.cities import small_city

        database = small_city(DEFAULT_SEED).database
        freq = database.freq(Point(500.0, 500.0), 150.0)
        served = [float(v) for v in freq]
        self.assertIsNone(release_violation("raw", served, freq, database.n_types))
        planted = list(served)
        planted[int(freq.argmax())] += 1.0
        self.assertIsNotNone(release_violation("raw", planted, freq, database.n_types))
        sanitized = Sanitizer(database, threshold=10).sanitize_vector(freq)
        self.assertIsNone(release_violation("sanitize", list(sanitized), sanitized, database.n_types))
        self.assertIsNotNone(release_violation("sanitize", planted, sanitized, database.n_types))
        self.assertIsNotNone(release_violation("laplace", [float("nan")] * database.n_types, None,
                                               database.n_types))


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self) -> None:
        # (id, name, start, end, parent, request, thread, info)
        spans = [
            (1, "experiments.fig6", 0.0, 10.0, None, "fig6", 0, None),
            (2, "poi.freq_batch", 1.0, 3.0, 1, "fig6", 0, None),
            (3, "geo.query_box", 1.5, 2.5, 2, "fig6", 0, None),
            (4, "defense.cloak", 2.0, 5.0, 1, "fig6", 1, None),  # overlaps span 2
            (5, "poi.freq_batch", 12.0, 13.0, None, None, 0, None),
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 4.0)  # union of [1,3] and [2,5]
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 1.0)
        self.assertAlmostEqual(selfs[4], 3.0)
        self.assertAlmostEqual(selfs[5], 1.0)
        layers = layer_seconds(spans)
        self.assertAlmostEqual(layers["poi"], 2.0)
        self.assertAlmostEqual(layers["experiments"], 6.0)
        self.assertAlmostEqual(covered_seconds(spans, 0.0, 12.5), 10.5)

    def test_tracer_links_parents_and_requests(self) -> None:
        tracer = Tracer()
        inner = tracer.wrap("geo.query_box", lambda: time.sleep(0.01))
        outer = tracer.wrap("defense.cloak", lambda: inner())
        tracer.set_request("r1")
        outer()
        (child, parent) = tracer.spans
        self.assertEqual(child[4], parent[0])
        self.assertEqual((child[5], parent[5]), ("r1", "r1"))
        self.assertGreaterEqual(self_times(tracer.spans)[child[0]], 0.01)


class Seeds(unittest.TestCase):
    def test_seed_determines_serve_inputs(self) -> None:
        from serve import make_requests

        self.assertEqual(make_requests(7), make_requests(7))
        self.assertNotEqual(make_requests(7), make_requests(8))


if __name__ == "__main__":
    unittest.main()
