"""Self-tests of the benchmark's own maths and failure accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import statistics
import unittest
from pathlib import Path

import benchlib

COLUMNS = ["rep", "traced", "key", "host_ms", "missed_pct", "combined_c",
           "cpu_pct", "net_pct", "replicas", "replicas_max",
           "frames_originated", "frames_arrived", "frames_in_fabric",
           "posts_rejected", "posts_clamped", "digest"]


def fabric_row(key="p03", originated=100, arrived=90, in_fabric=10,
               digest="d1", **fields):
    step = {"rep": 1, "traced": 0, "key": key, "host_ms": 70.0,
            "missed_pct": 0.0, "combined_c": 0.52, "cpu_pct": 6.8,
            "net_pct": 3.0, "replicas": 1.1, "replicas_max": 256.0,
            "frames_originated": originated, "frames_arrived": arrived,
            "frames_in_fabric": in_fabric, "posts_rejected": 0,
            "posts_clamped": 0, "digest": digest}
    step.update(fields)
    return [step[c] for c in COLUMNS]


def unit_times(timed, setup=None):
    """Calibration units of a machine `timed` (set-up: `setup`) times as
    slow as the reference."""
    ref = benchlib.REFERENCE_UNIT_S
    return {"setup": [ref * (timed if setup is None else setup)] * 3,
            "timed": [ref * timed] * 5}


def raw_run(rows, reference=None, replay=None):
    return {"steps": {"columns": COLUMNS, "rows": rows},
            "reference": reference if reference is not None else {"p03": "d1"},
            "replay": replay if replay is not None else {}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 50), 50)
        self.assertEqual(benchlib.nearest_rank(values, 90), 90)
        self.assertEqual(benchlib.nearest_rank(values, 100), 100)
        self.assertEqual(benchlib.nearest_rank([7.0], 90), 7.0)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 50), 2)

    def test_p90_needs_ten_samples_beyond(self):
        value, beyond = benchlib.percentile_with_tail(list(range(1, 101)), 90)
        self.assertEqual((value, beyond), (90, 10))
        value, beyond = benchlib.percentile_with_tail(list(range(1, 100)), 90)
        self.assertIsNone(value)
        self.assertEqual(beyond, 9)

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        values = [1.0] * 95 + [2.0] * 5
        value, beyond = benchlib.percentile_with_tail(values, 90)
        self.assertIsNone(value)
        self.assertEqual(beyond, 5)

    def test_empty_sample(self):
        self.assertEqual(benchlib.percentile_with_tail([], 90), (None, 0))
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 50)


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [1.7, 1.9, 1.75, 2.1, 1.8, 1.85, 1.72, 1.95, 1.78, 1.81]
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / q2)
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)

    def test_speed_factor_scales_host_times_to_the_reference_speed(self):
        ref = benchlib.REFERENCE_UNIT_S
        self.assertEqual(benchlib.speed_factor([ref] * 3), 1.0)
        # machine twice as slow: units take twice as long, times halve
        self.assertAlmostEqual(benchlib.speed_factor([2 * ref, 2 * ref, 9.0]),
                               0.5)
        with self.assertRaises(ValueError):
            benchlib.speed_factor([])

    def test_scaled_end_to_end_host_times(self):
        raw = raw_run([fabric_row(host_ms=float(i + 1)) for i in range(100)])
        raw.update({"setup_s": [0.2], "run_s": [2.0], "peak_rss_kib": 2048,
                    "missed_pct": 0.0, "combined_c": 0.5,
                    "calibration_s": unit_times(2.0, 4.0)})
        values, _ = benchlib.end_to_end_metrics(raw)
        self.assertAlmostEqual(values["setup_s"], 0.05)  # its own units
        self.assertAlmostEqual(values["run_s"], 1.0)
        self.assertAlmostEqual(values["step_ms_p50"], 25.0)
        self.assertAlmostEqual(values["step_ms_p90"], 45.0)
        self.assertEqual(values["peak_rss_mb"], 2.0)  # not a host time
        self.assertEqual(values["combined_c"], 0.5)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(benchlib.worse_by(2.0, 2.2, "lower"), 0.1)
        self.assertAlmostEqual(benchlib.worse_by(2.0, 1.8, "lower"), -0.1)
        self.assertAlmostEqual(benchlib.worse_by(100.0, 99.0, "higher"), 0.01)


class UnitTest(unittest.TestCase):
    def test_conversions(self):
        self.assertEqual(benchlib.kib_to_mb(6144), 6.0)
        self.assertEqual(benchlib.missed_to_met_pct(5.5), 94.5)
        self.assertEqual(benchlib.missed_to_met_pct(0.0), 100.0)

    def test_end_to_end_metrics_convert_units(self):
        raw = raw_run([fabric_row(host_ms=float(i + 1)) for i in range(100)])
        raw.update({"setup_s": [0.3, 0.1, 0.2], "run_s": [1.0, 3.0, 2.0],
                    "peak_rss_kib": 2048, "missed_pct": 2.5,
                    "combined_c": 0.6,
                    "calibration_s": unit_times(1.0)})
        values, problems = benchlib.end_to_end_metrics(raw)
        self.assertEqual(problems, [])
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["run_s"], 2.0)
        self.assertEqual(values["step_ms_p50"], 50.0)
        self.assertEqual(values["step_ms_p90"], 90.0)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(values["deadline_met_pct"], 97.5)

    def test_short_run_withholds_p90(self):
        raw = raw_run([fabric_row(host_ms=float(i + 1)) for i in range(50)])
        raw.update({"setup_s": [0.2], "run_s": [1.0], "peak_rss_kib": 1024,
                    "missed_pct": 0.0, "combined_c": 0.5,
                    "calibration_s": unit_times(1.0)})
        values, problems = benchlib.end_to_end_metrics(raw)
        self.assertIsNone(values["step_ms_p90"])
        self.assertEqual(len(problems), 1)


class PerLayerTest(unittest.TestCase):
    def traced_raw(self, **layers):
        counts = {name: 0.0 for name, _, _ in benchlib.PER_LAYER}
        counts.update(layers)
        return {"workers": 2, "missed_pct": 5.0,
                "run_s": [2.0, 1.0, 3.0], "traced_run_s": [2.2, 2.4],
                "calibration_s": unit_times(1.0),
                "layers": counts,
                "samples": {"busy_s": [3.0, 1.5, 4.5],
                            "apps.build_ms": [1.0, 9.0, 2.0],
                            "profile.exec_s": [0.1, 0.3, 0.2],
                            "core.replicate_us": [1.0, 2.0, 6.0]}}

    def test_samples_reduce_to_medians_and_means(self):
        values, problems = benchlib.per_layer_metrics(
            self.traced_raw(**{"experiments.episodes": 306.0}))
        self.assertEqual(problems, [])
        self.assertEqual(values["apps.build_ms"], 2.0)
        self.assertEqual(values["profile.exec_s"], 0.2)
        self.assertEqual(values["profile.comm_s"], 0.0)  # no samples
        self.assertEqual(values["core.replicate_us"], 3.0)  # mean per call
        self.assertEqual(values["core.missed_pct"], 5.0)

    def test_ratios_of_counts_and_times(self):
        values, _ = benchlib.per_layer_metrics(self.traced_raw(**{
            "sim.events": 1e6, "sim.sharded.rounds": 1000.0,
            "net.frames": 300.0, "net.frames_dropped": 100.0}))
        self.assertAlmostEqual(values["sim.ns_per_event"], 3000.0)
        self.assertAlmostEqual(values["sim.sharded.events_per_round"], 1000.0)
        self.assertAlmostEqual(values["sim.sharded.us_per_round"], 2000.0)
        self.assertAlmostEqual(values["net.frames_per_event"], 3e-4)
        self.assertAlmostEqual(values["net.useful_frame_pct"], 75.0)
        self.assertAlmostEqual(values["trace.overhead_pct"], 15.0)

    def test_unused_layers_report_zero(self):
        values, _ = benchlib.per_layer_metrics(self.traced_raw())
        for name in ("sim.ns_per_event", "sim.sharded.events_per_round",
                     "sim.sharded.us_per_round", "net.frames_per_event",
                     "net.useful_frame_pct", "experiments.idle_pct"):
            self.assertEqual(values[name], 0.0, name)

    def test_host_times_scale_counts_do_not(self):
        raw = self.traced_raw(**{"sim.events": 1e6, "net.frames": 10.0})
        raw["calibration_s"] = unit_times(4.0, 0.5)
        values, _ = benchlib.per_layer_metrics(raw)
        self.assertAlmostEqual(values["profile.exec_s"], 0.4)  # set-up units
        self.assertAlmostEqual(values["apps.build_ms"], 0.5)
        self.assertAlmostEqual(values["sim.ns_per_event"], 750.0)
        self.assertEqual(values["sim.events"], 1e6)
        self.assertAlmostEqual(values["trace.overhead_pct"], 15.0)

    def test_idle_share_of_the_episode_fan_out(self):
        # two workers, 2 s pass, 3 s of episodes: a quarter of the time idle
        values, _ = benchlib.per_layer_metrics(
            self.traced_raw(**{"experiments.episodes": 306.0}))
        self.assertAlmostEqual(values["experiments.idle_pct"], 25.0)


class FailureAccountingTest(unittest.TestCase):
    def test_clean_step_passes(self):
        self.assertEqual(benchlib.judge_steps(raw_run([fabric_row()]))[:2],
                         (1, 0))

    def test_injected_conservation_mismatch_fails_the_step(self):
        rows = [fabric_row(), fabric_row(originated=101), fabric_row()]
        attempted, failed, examples = benchlib.judge_steps(raw_run(rows))
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("frame conservation", examples[0])

    def test_bus_rows_skip_conservation(self):
        row = fabric_row(originated=-1, arrived=-1, in_fabric=-1)
        self.assertEqual(benchlib.judge_steps(raw_run([row]))[1], 0)

    def test_rejected_or_clamped_post_fails(self):
        rows = [fabric_row(posts_rejected=1), fabric_row(posts_clamped=2)]
        self.assertEqual(benchlib.judge_steps(raw_run(rows))[1], 2)

    def test_non_finite_or_out_of_range_result_fails(self):
        rows = [fabric_row(combined_c=math.nan),
                fabric_row(missed_pct=101.0),
                fabric_row(replicas=300.0),
                fabric_row(cpu_pct=math.inf)]
        self.assertEqual(benchlib.judge_steps(raw_run(rows))[1], 4)

    def test_digest_drift_and_replay_mismatch_fail(self):
        drift = raw_run([fabric_row(digest="other")])
        self.assertEqual(benchlib.judge_steps(drift)[1], 1)
        replay = raw_run([fabric_row()], replay={"p03": "other"})
        self.assertEqual(benchlib.judge_steps(replay)[1], 1)
        matching = raw_run([fabric_row()], replay={"p03": "d1"})
        self.assertEqual(benchlib.judge_steps(matching)[1], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        spec = json.loads(path.read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(benchlib.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(benchlib.PER_LAYER))
        for w in spec["workloads"]:
            self.assertIn(w["name"], benchlib.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
