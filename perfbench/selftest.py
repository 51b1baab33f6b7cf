#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py        # from the repository root

Runs tiny versions of every workload through perfbench/run.py and checks:
  * every metric BENCHMARK.json names is printed, with its unit, in the mode
    that owns it (end_to_end untraced, per_layer traced), and nothing else;
  * the traced run's spans nest under the workload span, each child inside
    its parent's interval, with non-negative self time;
  * a deliberately corrupted expected hash is counted as a failed point;
  * a directory holding only BENCHMARK.json and perfbench/ fails cleanly
    (non-zero exit, no result line).
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
# Smallest runs that still exercise every code path: one pass, few points.
TINY = ["--seed", str(SEED), "--seconds", "0.1", "--max-points", "3"]


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--trace", str(trace), *TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsArePrinted(unittest.TestCase):
    def check_mode(self, trace, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = run(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result_of(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], proc.stderr[-2000:])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in res["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)

    def test_end_to_end_untraced(self):
        self.check_mode(0, "end_to_end")

    def test_per_layer_traced(self):
        self.check_mode(1, "per_layer")


class SpansNest(unittest.TestCase):
    def test_spans_nest_under_workload(self):
        workload = "failure-recovery"  # the only one with restart spans
        proc = run(workload, 1)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        path = ROOT / ".bench_build" / "traces" / f"{workload}-seed{SEED}.json"
        events = json.loads(path.read_text())["traceEvents"]
        self.assertGreater(len(events), 1)
        by_id = {e["args"]["id"]: e for e in events}
        roots = [e for e in events if e["args"]["parent"] < 0]
        self.assertEqual([e["name"] for e in roots], ["workload"])
        names = {e["name"] for e in events}
        for layer in ("point", "harness.setup", "mpi.app", "sim.run", "ckpt.plan",
                      "ckpt.window", "harness.restart"):
            self.assertIn(layer, names)
        eps = 1e-3  # microseconds of float rounding
        for e in events:
            self.assertGreaterEqual(e["args"]["self_us"], -eps, e)
            self.assertGreaterEqual(e["dur"], 0)
            node = e
            while node["args"]["parent"] >= 0:
                parent = by_id[node["args"]["parent"]]
                self.assertGreaterEqual(node["ts"], parent["ts"] - eps)
                self.assertLessEqual(node["ts"] + node["dur"],
                                     parent["ts"] + parent["dur"] + eps)
                node = parent
            self.assertEqual(node["name"], "workload")


class FailuresAreCounted(unittest.TestCase):
    def test_corrupted_expected_hash_fails_a_point(self):
        proc = run("paper-sweep", 0, "--corrupt-check")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result_of(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("FAILED", proc.stderr)


class BareDirectoryFails(unittest.TestCase):
    def test_without_sources_no_result(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        proc = run("paper-sweep", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
