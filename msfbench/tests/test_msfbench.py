#!/usr/bin/env python3
"""Tests of the benchmark itself (not of smpmsf).

    python3 msfbench/tests/test_msfbench.py

Runs every workload at a tiny size (--scale 0.01, 3-second window), untraced
and traced, and checks that each prints every metric BENCHMARK.json declares
with its unit under a well-formed name and passes its correctness gate; then
damages one static forest and one served reply and checks that the gate
trips.  Builds msfbench on first use like any run; about a minute after that.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "msfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "3", "--trace", str(trace), "--scale", "0.01",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class Smoke(unittest.TestCase):
    def check(self, workload, trace, declared):
        code, result, err = run(workload, trace)
        self.assertEqual(code, 0, err)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(metric["unit"], want[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, SPEC["end_to_end"])

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, SPEC["per_layer"])
                trace = ROOT / ".bench_work" / f"{w['name']}-s7-t1" / "trace.json"
                events = json.loads(trace.read_text())["traceEvents"]
                names = {e["name"].split(".")[0] for e in events}
                for layer in ("graph", "core", "seq", "pprim", "dynamic", "query",
                              "persist", "serve", "net"):
                    self.assertIn(layer, names)


class Gate(unittest.TestCase):
    def trips(self, what):
        code, result, err = run(SPEC["workloads"][0]["name"], 0, "--corrupt", what)
        self.assertNotEqual(code, 0, err)
        self.assertIsNotNone(result, err)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_corrupted_forest_fails_the_run(self):
        self.trips("forest")

    def test_corrupted_reply_fails_the_run(self):
        self.trips("reply")


if __name__ == "__main__":
    unittest.main(verbosity=2)
