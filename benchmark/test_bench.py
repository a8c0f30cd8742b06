#!/usr/bin/env python3
"""The benchmark's own test, at small scale.

    python3 benchmark/test_bench.py        # from the repository root

For every workload it runs the benchmark command twice with the same seed
and checks that every end-to-end metric is printed with its unit, that the
virtual-time (v_*) metrics are identical across the two runs, and that the
run is correct. One per-layer run per workload checks every per-layer
metric. Takes about a minute; builds the benchmark first if needed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check_result(self, lines, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertGreaterEqual(result["attempted"], 1)
        for metric in SPEC[section]:
            name, unit = metric["name"], metric["unit"]
            self.assertIn(name, result["metrics"])
            self.assertEqual(result["metrics"][name]["unit"], unit)
            # The human-readable part names each metric with its unit too.
            self.assertTrue(any(line.split()[:1] == [name] and line.split()[-1] == unit
                                for line in lines), f"{name} not printed")

    def test_end_to_end_repeats_for_a_seed(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first_lines, first = run(workload, 0)
                _, second = run(workload, 0)
                self.check_result(first_lines, first, "end_to_end")
                # Metrics printed for the reader but left out of the JSON result.
                text = "\n".join(first_lines)
                self.assertIn("failed_frac", text)
                self.assertIn("v_converge_s", text)
                for name, metric in first["metrics"].items():
                    if name.startswith("v_"):
                        self.assertEqual(metric["value"], second["metrics"][name]["value"], name)
                # The iteration count depends on --seconds alone, so the
                # op totals repeat too.
                self.assertEqual(first["attempted"], second["attempted"])
                self.assertEqual(first["failed"], second["failed"])

    def test_per_layer_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                lines, result = run(workload, 1)
                self.check_result(lines, result, "per_layer")


if __name__ == "__main__":
    unittest.main()
