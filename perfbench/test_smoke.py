#!/usr/bin/env python3
"""Reduced-size smoke test of the benchmark.

    python3 perfbench/test_smoke.py

Run from the root of a checkout. For every workload, in both the untraced
and the traced mode, it asserts that the result line names exactly the
metrics BENCHMARK.json declares for that mode, each with its declared
unit, and that the outputs were judged correct. It then runs with a
deliberately corrupted plan and asserts that the correctness check fails
the run.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", trace, "--smoke",
         *extra],
        capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, trace: str, declared: list):
        units = {m["name"]: m["unit"] for m in declared}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                done = run(w["name"], trace)
                self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                result = result_of(done)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, units)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check_metrics("0", SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_metrics("1", SPEC["per_layer"])

    def test_corrupted_plan_fails_the_run(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                done = run(w["name"], "0", "--corrupt-plan")
                self.assertNotEqual(done.returncode, 0)
                self.assertFalse(result_of(done)["correct"])
                self.assertIn("WRONG OUTPUT", done.stderr)


if __name__ == "__main__":
    unittest.main()
