"""Tests of the benchmark's own helpers (no build, no timing):

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import copy
import json
import os
import statistics
import unittest

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def make_unit(traced=False, wall=2.0, cpu=6.0, ops=4, failed=0, **layers):
    return {
        "traced": traced, "wall_s": wall, "cpu_s": cpu, "ops": ops,
        "failed_ops": failed, "digest": "00112233445566ff",
        "counters": {"candidates": 4000, "evaluated": 800, "pruned": 400,
                     "cache_hits": 2800, "cutoff": 30, "screened": 0,
                     "regime_evals": 0},
        "layers": dict(layers),
    }


def make_raw(units, samples=None, layers=None):
    return {"setup_s": [0.05, 0.04, 0.06], "units": units,
            "samples": samples or {}, "layers": layers or {},
            "peak_rss_mb": 25.5}


def reference_of(unit):
    return {"counters": dict(unit["counters"]), "digest": unit["digest"]}


class PercentileTest(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        xs = [7.0, 1.0, 3.5, 9.25, 2.0, 11.0, 4.0, 8.0, 6.5, 5.0, 10.0]
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        for p in (1, 25, 50, 80, 99):
            self.assertAlmostEqual(run.percentile(xs, p), cuts[p - 1])

    def test_edges(self):
        self.assertEqual(run.percentile([3.0], 99), 3.0)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0], 0), 1.0)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0], 100), 4.0)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(1000, 99), 99)
        self.assertEqual(run.tail_percentile(999, 99), 95)
        self.assertEqual(run.tail_percentile(50, 80), 80)
        self.assertEqual(run.tail_percentile(49, 80), 75)
        self.assertEqual(run.tail_percentile(40, 99), 75)
        self.assertEqual(run.tail_percentile(5, 99), 50)

    def test_never_above_the_wanted_percentile(self):
        self.assertEqual(run.tail_percentile(10 ** 6, 80), 80)
        self.assertEqual(run.tail_percentile(10 ** 6, 50), 50)

    def test_every_reported_tail_has_ten_beyond(self):
        for n in range(1, 2000, 7):
            p = run.tail_percentile(n, 99)
            if p != 50:
                self.assertGreaterEqual(n * (100 - p) / 100.0, 10)


class WorkCheckTest(unittest.TestCase):
    def test_exact_match_passes_and_is_stable(self):
        unit = make_unit()
        ref = reference_of(unit)
        self.assertEqual(run.unit_mismatches(unit, ref), [])
        self.assertEqual(run.unit_mismatches(copy.deepcopy(unit), ref), [])

    def test_any_counter_or_digest_difference_fails(self):
        unit = make_unit()
        ref = reference_of(unit)
        for name in unit["counters"]:
            bad = copy.deepcopy(unit)
            bad["counters"][name] += 1
            self.assertEqual(len(run.unit_mismatches(bad, ref)), 1, name)
        bad = copy.deepcopy(unit)
        bad["digest"] = "ffffffffffffffff"
        self.assertEqual(len(run.unit_mismatches(bad, ref)), 1)
        missing = copy.deepcopy(unit)
        del missing["counters"]["screened"]
        self.assertEqual(len(run.unit_mismatches(missing, ref)), 1)

    def test_missing_reference_fails(self):
        self.assertTrue(run.unit_mismatches(make_unit(), None))

    def test_reference_file_covers_every_variant(self):
        reference = run.load_reference()
        for workload in run.WORKLOADS:
            bases = run.VARIANT_BASES[workload]
            self.assertEqual(len(set(bases)), len(bases))
            for base in bases:
                entry = run.reference_for(reference, workload, base)
                self.assertIsNotNone(entry, (workload, base))
                self.assertRegex(entry["digest"], r"^[0-9a-f]{16}$")
                self.assertGreater(entry["counters"]["candidates"], 0)
                self.assertGreater(entry["counters"]["evaluated"], 0)

    def test_seed_to_variant_is_deterministic_and_covers_all(self):
        for workload in run.WORKLOADS:
            seen = {run.variant_of(workload, s) for s in range(100)}
            self.assertEqual(seen, set(run.VARIANT_BASES[workload]))
            self.assertEqual(run.variant_of(workload, 7),
                             run.variant_of(workload, 7))


class FailureAccountingTest(unittest.TestCase):
    def test_clean_units(self):
        units = [make_unit(ops=4), make_unit(ops=4, failed=1)]
        attempted, failed, problems = run.account(units,
                                                  reference_of(units[0]))
        self.assertEqual((attempted, failed, problems), (8, 1, []))

    def test_mismatched_unit_fails_all_its_operations(self):
        good = make_unit(ops=10)
        bad = copy.deepcopy(good)
        bad["counters"]["evaluated"] -= 1
        attempted, failed, problems = run.account([good, bad, good],
                                                  reference_of(good))
        self.assertEqual(attempted, 30)
        self.assertEqual(failed, 10)
        self.assertEqual(len(problems), 1)


class MetricTest(unittest.TestCase):
    def test_end_to_end_uses_untraced_units_and_medians(self):
        raw = make_raw([make_unit(wall=2.0, cpu=8.0),
                        make_unit(wall=4.0, cpu=8.0),
                        make_unit(wall=2.5, cpu=9.6),
                        make_unit(traced=True, wall=100.0, cpu=100.0)])
        e2e = run.end_to_end(raw)
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertAlmostEqual(e2e["setup_s"], 0.05)
        self.assertAlmostEqual(e2e["cands_per_s"], 4000 / 2.5)
        self.assertAlmostEqual(e2e["cpu_ms_per_eval"], 1e3 * 8.0 / 800)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 25.5)

    def test_regime_evaluations_are_the_paid_evaluations(self):
        unit = make_unit()
        unit["counters"]["regime_evals"] = 1600
        self.assertEqual(run.paid_evaluations(unit), 1600)
        self.assertEqual(run.paid_evaluations(make_unit()), 800)

    def test_per_layer_covers_every_metric(self):
        raw = make_raw(
            [make_unit(wall=2.0), make_unit(traced=True, wall=2.2,
                                            **{"cache.hit_frac": 0.7})],
            samples={"job_ms": [float(i) for i in range(1, 61)],
                     "stress_ms": [30.0] * 60},
            layers={"market.simulate_ms": 55.0})
        values = run.per_layer(raw)
        self.assertEqual(set(values), set(run.PER_LAYER))
        self.assertAlmostEqual(values["cache.hit_frac"], 0.7)
        self.assertAlmostEqual(values["market.simulate_ms"], 55.0)
        self.assertAlmostEqual(values["service.job_p80_ms"],
                               run.percentile(raw["samples"]["job_ms"], 80))
        self.assertAlmostEqual(values["service.stress_regime_ms"], 10.0)
        self.assertAlmostEqual(values["obs.trace_overhead_pct"], 10.0)
        self.assertEqual(values["scenario.score_ms_p50"], 0.0)  # bypassed

    def test_result_line_shape(self):
        values = dict.fromkeys(run.END_TO_END, 1.5)
        line = json.loads(run.result_line(True, 12, 0, values,
                                          run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["cands_per_s"],
                         {"value": 1.5, "unit": "1/s"})


class NamesTest(unittest.TestCase):
    def test_metric_names(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, run.METRIC_NAME)
            self.assertLessEqual(len(name), 64)

    def test_benchmark_json_matches_the_driver(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], run.METRIC_NAME)
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
