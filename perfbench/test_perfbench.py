#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_perfbench.py

Builds dfcnn_perfbench the way run.py does, then runs it with short loops:
  * simulated-clock metrics repeat exactly across runs and thread counts;
  * every printed metric name and unit matches BENCHMARK.json;
  * a logit corrupted inside the run is counted as a failed op.
"""
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SIM_METRICS = [m["name"] for m in BENCH["end_to_end"]
               if m["name"].startswith("sim_") or m["name"] == "served_pct"]
BINARY = None


def drive(workload, seed=11, seconds=0.3, trace=0, threads=None, extra=()):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    env = dict(os.environ)
    env.pop("DFCNN_SWEEP_THREADS", None)
    if threads is not None:
        env["DFCNN_SWEEP_THREADS"] = str(threads)
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=run.ROOT,
                         env=env)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def setUpModule():
    global BINARY
    BINARY = run.build()


class SimulatedClockTest(unittest.TestCase):
    def test_repeats_across_runs_and_thread_counts(self):
        nproc = len(os.sched_getaffinity(0))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [drive(w, threads=1), drive(w, threads=1), drive(w, threads=nproc)]
                for r in runs:
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                sims = [{k: r["metrics"][k]["value"] for k in SIM_METRICS} for r in runs]
                self.assertEqual(sims[0], sims[1])
                self.assertEqual(sims[0], sims[2])


class SchemaTest(unittest.TestCase):
    def test_result_keys(self):
        r = drive(WORKLOADS[0])
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(r["attempted"], 1)

    def test_end_to_end_names_and_units(self):
        want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(units(drive(w)), want)

    def test_per_layer_names_and_units(self):
        want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        self.assertEqual(units(drive(WORKLOADS[0], seconds=1.0, trace=1)), want)


class OutputCheckTest(unittest.TestCase):
    def test_corrupted_logit_is_a_failed_op(self):
        for w in ("cifar_cycle", "cifar_compiled", "alexnet_4board"):
            with self.subTest(workload=w):
                r = drive(w, extra=("--corrupt-op", "0"))
                self.assertFalse(r["correct"])
                self.assertEqual(r["failed"], 1)

    def test_clean_run_has_no_failures(self):
        r = drive("cifar_compiled", extra=("--corrupt-op", "1000000"))
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)


if __name__ == "__main__":
    unittest.main()
