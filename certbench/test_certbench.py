#!/usr/bin/env python3
"""Tests of the benchmark's own code. Run from the repository root:

    python3 certbench/test_certbench.py

- the self-test binary (order statistics, open-loop latency and lateness
  against a synthetic schedule, span parents and self time, oracle gate);
- a tiny-size smoke run of each workload, untraced and traced, which must
  pass the oracle gate and print every metric BENCHMARK.json names, with
  its unit;
- the oracle gate trips, and the run exits non-zero, when one output cell
  is perturbed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# Small enough for a 1-second run; big enough that every layer does work.
TINY = ["--scale", "0.02", "--seconds", "1"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    done = subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=900,
                          check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class CertbenchTest(unittest.TestCase):
    def test_selftest(self):
        done = subprocess.run([sys.executable, RUN, "--selftest"], cwd=ROOT,
                              capture_output=True, text=True, timeout=900,
                              check=False)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_smoke_every_workload_prints_every_metric(self):
        bench = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            for workload in (w["name"] for w in bench["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run("--workload", workload, "--seed",
                                            "7", "--trace", str(trace), *TINY)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = result["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, unit in want.items():
                        self.assertEqual(got[name]["unit"], unit, name)
                        self.assertIsInstance(got[name]["value"], (int, float))

    def test_oracle_gate_trips_on_one_perturbed_cell(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            with self.subTest(workload=workload):
                code, result, err = run("--workload", workload, "--seed", "7",
                                        "--trace", "0", "--perturb-oracle",
                                        *TINY)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("oracle gate", err)


if __name__ == "__main__":
    unittest.main()
