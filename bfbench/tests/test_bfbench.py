#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny size.

    python3 bfbench/tests/test_bfbench.py

Run from the root of a checkout; the first test builds the benchmark
the way bfbench/run.py always does. Each case runs every workload for
a fraction of a second on a few hundred jobs.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("paper-grid", "bb-contended", "served-socket", "served-durable")
TINY_JOBS = {"paper-grid": 60, "bb-contended": 80, "served-socket": 300,
             "served-durable": 150}


def run(workload, seed=1, trace=0, extra=()):
    command = [sys.executable, os.path.join(BENCH, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0.1", "--trace", str(trace),
               "--jobs", str(TINY_JOBS[workload]), *extra]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          check=False)
    return done


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no result; stderr:\n{done.stderr[-3000:]}")
    return json.loads(lines[-1])


def digests(workload, seed, trace):
    with tempfile.NamedTemporaryFile("r", suffix=".txt") as out:
        done = run(workload, seed, trace, ("--digest-out", out.name))
        result = result_of(done)
        pairs = [line.split() for line in out.read().splitlines()]
    # Strip the pass/replay prefix: "untraced3/ctc#0/..." -> "ctc#0/...".
    by_op = {}
    for op, digest in pairs:
        key = op.split("/", 1)[1] if "/" in op else ""
        by_op.setdefault(key, set()).add(digest)
    return result, by_op


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
            cls.spec = json.load(spec)

    def test_every_metric_prints_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, trace=trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                    result = result_of(done)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: metric["unit"]
                               for name, metric in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_seed_changes_inputs_not_metric_names(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, first_ops = digests(workload, 1, 0)
                second, second_ops = digests(workload, 2, 0)
                self.assertEqual(set(first["metrics"]), set(second["metrics"]))
                self.assertEqual(set(first_ops), set(second_ops))
                self.assertNotEqual(first_ops, second_ops)

    def test_traced_and_untraced_schedules_agree(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced, untraced_ops = digests(workload, 3, 0)
                traced, traced_ops = digests(workload, 3, 1)
                self.assertTrue(untraced["correct"] and traced["correct"])
                self.assertEqual(set(untraced_ops), set(traced_ops))
                for op, values in untraced_ops.items():
                    self.assertEqual(len(values), 1, op)
                    self.assertEqual(values, traced_ops[op], op)

    def test_planted_wrong_start_raises_the_error_rate(self):
        # The fault is planted in every pass or replay, the warm-up and
        # the timed ones alike: a run in which nothing passes the gate
        # must still end on time and report every metric.
        expected = {m["name"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload, extra=("--plant-fault",))
                self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                result = result_of(done)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), expected)
                self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as empty:
            bench = os.path.join(empty, "bfbench")
            os.makedirs(bench)
            with open(os.path.join(BENCH, "run.py"), encoding="utf-8") as source:
                script = source.read()
            with open(os.path.join(bench, "run.py"), "w", encoding="utf-8") as copy:
                copy.write(script)
            done = subprocess.run(
                [sys.executable, "bfbench/run.py", "--workload", "paper-grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=empty, check=False,
                timeout=60)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
