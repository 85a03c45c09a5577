#!/usr/bin/env python3
"""Falsification tests for perfbench's correctness gates and guards.

    python3 perfbench/test_gates.py

Each gate is shown to fire: a run with a deliberate fault (--inject) must
end with correct=false and a nonzero count of failed operations, while the
same run without the fault passes. Also checked: the thread-budget guard
under a narrowed CPU affinity mask, the traced run's time accounting, and
the refusal to run outside a checkout of the repository.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(workload, *extra, trace=0, seconds=1, root=ROOT, prefix=()):
    proc = subprocess.run(
        [*prefix, sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc, result


class Gates(unittest.TestCase):
    def assert_passes(self, workload):
        proc, result = run(workload)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def assert_caught(self, workload, fault):
        proc, result = run(workload, "--inject", fault)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertIn("FAILED", proc.stderr)

    def test_extra_tampered_frame(self):
        self.assert_passes("signed-settle")
        self.assert_caught("signed-settle", "extra-tamper")

    def test_wrong_reference_total(self):
        self.assert_passes("plain-settle")
        self.assert_caught("plain-settle", "wrong-reference")

    def test_truncated_archive(self):
        self.assert_passes("receipt-log")
        self.assert_caught("receipt-log", "truncated-archive")

    def test_broken_fleet_identity(self):
        self.assert_passes("fleet-sim")
        self.assert_caught("fleet-sim", "broken-identity")


class Guards(unittest.TestCase):
    @unittest.skipUnless(shutil.which("taskset"), "needs taskset")
    def test_thread_budget(self):
        # Three threads on two CPUs: refused before any work, no result.
        proc, result = run("plain-settle", prefix=("taskset", "-c", "0,1"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)
        self.assertIn("oversubscribed", proc.stderr)
        # One thread on one CPU fits.
        proc, result = run("receipt-log", prefix=("taskset", "-c", "0"))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])

    def test_traced_time_adds_up(self):
        seconds = 3
        proc, result = run("signed-settle", trace=1, seconds=seconds)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"], proc.stderr)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # Busy time is the traced phase's own wall time (a third of the
        # run), not a sum of spans.
        self.assertGreaterEqual(m["svc.busy_ms"], seconds / 3 * 1000)
        layers = sum(m[f"{l}.self_ms"] for l in ("wire", "tlc", "serve", "exp"))
        self.assertAlmostEqual(layers + m["trace.unattributed_ms"],
                               m["svc.busy_ms"], places=3)
        self.assertGreaterEqual(m["trace.unattributed_ms"], 0)
        self.assertLess(m["trace.unattributed_ratio"], 0.05)
        for name in ("wire.decode_ns_per_receipt", "tlc.verify_ns_per_receipt",
                     "serve.submit_ns_per_record", "p99_latency_us"):
            self.assertGreater(m[name], 0, name)

    def test_untraced_work_caught(self):
        # Work in the service loop that no layer span covers must show as
        # unattributed time and fail the run past 5 %.
        proc, result = run("signed-settle", "--inject", "untraced-work",
                           trace=1, seconds=3)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["trace.unattributed_ratio"]
                           ["value"], 0.05)
        self.assertIn("unattributed", proc.stderr)

    def test_refuses_outside_checkout(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        alone = tempfile.mkdtemp(prefix="alone-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(BENCH_DIR, os.path.join(alone, "perfbench"))
            proc, result = run("receipt-log", root=alone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(alone)


if __name__ == "__main__":
    unittest.main(verbosity=2)
