#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at smoke size through run.py, and the program's
bit-level self test. Takes about half a minute after the build.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, *extra, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, env=env)


def result_of(completed):
    return json.loads(completed.stdout.splitlines()[-1])


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def test_every_metric_is_emitted_finite_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, expected in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    completed = smoke(workload, trace)
                    self.assertEqual(completed.returncode, 0, completed.stderr)
                    result = result_of(completed)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in expected})
                    for metric in expected:
                        emitted = result["metrics"][metric["name"]]
                        self.assertEqual(emitted["unit"], metric["unit"])
                        self.assertTrue(math.isfinite(emitted["value"]),
                                        metric["name"])

    def test_traced_decomposition_matches_the_facade_bit_for_bit(self):
        # Serial, parallel and out-of-core engines, plus a one-ulp factor
        # change that the comparison must catch. (The traced smoke runs
        # above check the service's decomposition: a mismatch fails them.)
        completed = subprocess.run([bench.BINARY, "--selftest"],
                                   stdout=subprocess.PIPE, text=True,
                                   timeout=300)
        self.assertEqual(completed.returncode, 0, completed.stdout)

    def test_a_perturbed_solution_counts_as_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                completed = smoke(workload, 0, "--perturb-every", "2")
                self.assertEqual(completed.returncode, 0, completed.stderr)
                result = result_of(completed)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertAlmostEqual(
                    result["metrics"]["success_rate"]["value"],
                    1.0 - result["failed"] / result["attempted"])

    def test_refuses_to_run_under_a_treemem_override(self):
        env = dict(os.environ, TREEMEM_KERNEL="blocked")
        completed = smoke("cold_2d", 0, env=env)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)


if __name__ == "__main__":
    unittest.main()
