#!/usr/bin/env python3
"""Tests of the benchmark's own machinery.

    python3 perfbench/test_perfbench.py

Builds the driver on first use (like run.py). Covers the tail rule, seed
determinism of the generated inputs, the CPU-time accounting of the
end-to-end metrics and the driver's pinning to one CPU, self time on a
synthetic trace, the fingerprint guard of compare.py, the metric list of
BENCHMARK.json, and the check mode on every workload.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import compare  # noqa: E402
import run  # noqa: E402
import trace_report  # noqa: E402

WORKLOADS = list(run.WORKLOADS)
_DRIVER = []


def driver():
    if not _DRIVER:
        _DRIVER.append(run.build_driver())
    return _DRIVER[0]


def plan(workload, seed):
    command = [str(driver()), "plan", workload, "--seed", str(seed)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout)


class TailRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(200, 95), 10)
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.samples_beyond(1000, 99), 10)
        self.assertTrue(run.tail_supported(200, 95))
        self.assertFalse(run.tail_supported(180, 95))
        self.assertFalse(run.tail_supported(10000, 97))

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(run.percentile(list(range(101)), 99), 99)
        self.assertAlmostEqual(run.percentile([0, 10], 25), 2.5)

    def test_the_tail_is_the_highest_with_support(self):
        seconds = run.benchmark_spec()["run_seconds"]
        p = run.TAIL_PERCENTILE
        higher = [q for q in run.PERCENTILE_LADDER if q > p]
        for workload, rate in run.MIN_RATE_PER_S.items():
            count = int(rate * seconds)
            self.assertTrue(run.tail_supported(count, p), workload)
            self.assertFalse(any(run.tail_supported(count, q)
                                 for q in higher), workload)


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            first, again, other = plan(workload, 7), plan(workload, 7), \
                plan(workload, 8)
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)


class CpuTimeMetrics(unittest.TestCase):
    RECORD = {"cpu_ms": [10.0, 12.0, 11.0, 30.0], "cpu_s": 0.063,
              "start_s": [0.0, 0.5, 1.0, 1.5],
              "done_s": [0.4, 0.9, 1.4, 1.9],
              "completed": 4, "elapsed_s": 2.0, "peak_rss_mb": 5.0,
              "setup_cpu_s": 0.3, "setup_s": 0.9}

    def test_metrics_read_cpu_time_not_wall_time(self):
        setups = [{"setup_cpu_s": 0.2, "setup_s": 5.0},
                  {"setup_cpu_s": 0.4, "setup_s": 5.0}]
        metrics = run.end_to_end("generate", self.RECORD, setups)
        self.assertEqual(run.wall_ms(self.RECORD)[0], 400.0)
        self.assertAlmostEqual(
            metrics["cpu_tail_ms"][0],
            run.percentile(self.RECORD["cpu_ms"], run.TAIL_PERCENTILE))
        self.assertAlmostEqual(metrics["setup_s"][0], 0.3)
        spec = run.benchmark_spec()
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(metrics))
        info = run.detail("generate", dict(
            self.RECORD, fingerprint={}, load_average=0.0, steal_share=0.0,
            errors=[]), setups)
        self.assertAlmostEqual(info["cpu_p50_ms"], 11.5)
        self.assertAlmostEqual(info["requests_per_cpu_s"], 4 / 0.063)
        self.assertAlmostEqual(info["wall_p50_ms"], 400.0)

    def test_driver_pins_itself_to_one_cpu(self):
        record = run.run_driver(driver(), "generate", "--seed", 3,
                                "--mode", "check")
        self.assertEqual(record["failed"], 0, record["errors"])
        self.assertEqual(record["fingerprint"]["cpus_used"], 1)
        self.assertEqual(len(record["cpu_ms"]), record["completed"])
        self.assertTrue(all(c > 0 for c in record["cpu_ms"]))


class SelfTime(unittest.TestCase):
    TRACE = {"spans": [
        {"id": 0, "name": "request", "t0": 0, "t1": 100, "parent": -1,
         "req": 0},
        {"id": 1, "name": "a", "t0": 10, "t1": 30, "parent": 0, "req": 0},
        {"id": 2, "name": "a", "t0": 20, "t1": 50, "parent": 0, "req": 0},
        {"id": 3, "name": "b", "t0": 90, "t1": 120, "parent": 0, "req": 0},
        {"id": 4, "name": "c", "t0": 12, "t1": 18, "parent": 1, "req": 0},
        {"id": 5, "name": "request", "t0": 200, "t1": 260, "parent": -1,
         "req": 1},
        {"id": 6, "name": "a", "t0": 200, "t1": 260, "parent": 5, "req": 1},
    ], "counts": [
        {"name": "engine.queries", "req": 0, "value": 4},
        {"name": "engine.queries", "req": 1, "value": 6},
    ]}

    def test_self_time_subtracts_covered_child_time(self):
        selfs = trace_report.self_times(self.TRACE["spans"])
        # Children cover [10, 50] and [90, 100] of the first request:
        # overlap counted once, the part past the parent's end not at all.
        self.assertEqual(selfs[0], 50)
        self.assertEqual(selfs[1], 14)  # 20 minus grandchild c's 6
        self.assertEqual(selfs[4], 6)
        self.assertEqual(selfs[5], 0)

    def test_cover_per_name_and_counts(self):
        spans = self.TRACE["spans"]
        self.assertAlmostEqual(trace_report.span_cover(spans), 110 / 160)
        by_name = trace_report.per_name(spans)
        calls, ms_per_call, self_ms = by_name["a"]
        self.assertEqual(calls, 1.5)
        self.assertAlmostEqual(ms_per_call, (20 + 30 + 60) / 3 / 1e3)
        self.assertAlmostEqual(self_ms, (14 + 30 + 60) / 2 / 1e3)
        self.assertEqual(trace_report.counts_per_request(self.TRACE),
                         {"engine.queries": 5.0})


class Comparison(unittest.TestCase):
    def record(self, fingerprint, value):
        return {"workload": "generate", "fingerprint": fingerprint,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                            for m in run.benchmark_spec()["end_to_end"]}}

    def write(self, directory, name, record):
        path = Path(directory) / name
        path.write_text(json.dumps(record))
        return str(path)

    def test_refuses_different_fingerprints(self):
        with tempfile.TemporaryDirectory() as directory:
            a = self.write(directory, "a.json",
                           self.record({"nproc": 4, "lanes": 2}, 1.0))
            b = self.write(directory, "b.json",
                           self.record({"nproc": 8, "lanes": 2}, 1.0))
            self.assertEqual(compare.main(["--base", a, "--new", b]), 2)
            self.assertEqual(compare.main(["--base", a, "--new", a]), 0)

    def test_flags_a_regression_beyond_the_bound(self):
        with tempfile.TemporaryDirectory() as directory:
            fp = {"nproc": 4}
            base = [self.write(directory, f"b{i}.json",
                               self.record(fp, 10.0 + i * 0.01))
                    for i in range(5)]
            slow = [self.write(directory, f"n{i}.json",
                               self.record(fp, 20.0 + i * 0.01))
                    for i in range(5)]
            self.assertEqual(
                compare.main(["--base", *base, "--new", *slow]), 1)


class Spec(unittest.TestCase):
    def test_per_layer_metrics_match_the_trace_reader(self):
        spec = run.benchmark_spec()
        reported = trace_report.layer_metrics(
            {"values": {n: 1.0 for n in trace_report.PROBES},
             "cpu_ms": [], "traced": []},
            {"spans": [], "counts": []})
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(reported))
        for metric in spec["per_layer"]:
            self.assertEqual(metric["unit"], reported[metric["name"]][1])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         WORKLOADS)


class CheckMode(unittest.TestCase):
    def test_every_workload_passes_its_output_checks(self):
        attempted, failed = run.check(driver(), WORKLOADS)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)


if __name__ == "__main__":
    unittest.main()
