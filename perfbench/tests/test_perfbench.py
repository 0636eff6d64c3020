#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark (as run.py does), runs the C++ self-test of the
aggregation code, checks BENCHMARK.json against the benchmark's metric
catalogue and the benchmark contract's limits, and drives short runs: clean
runs pass and print exactly the catalogued metrics, the simulator repeats
exactly, injected faults fail the run, and a tree without the library
sources fails without printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def setUpModule():
    global BUILD, BENCHMARK
    os.chdir(ROOT)
    BUILD = run.build("perfbench")
    run.build("perfbench_selftest")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        BENCHMARK = json.load(f)


def bench(*args):
    """Runs the benchmark binary; returns (exit code, stdout lines, result)."""
    p = subprocess.run([os.path.join(BUILD, "perfbench"), *args],
                       capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, lines, result


class SelfTest(unittest.TestCase):
    def test_aggregation_selftest_passes(self):
        p = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("checks passed", p.stdout)


class Catalogue(unittest.TestCase):
    def catalogue(self):
        _, lines, _ = bench("--list-metrics")
        return [json.loads(line) for line in lines]

    def test_benchmark_json_matches_catalogue(self):
        cat = self.catalogue()
        for key, per_layer in (("end_to_end", False), ("per_layer", True)):
            want = [(m["name"], m["unit"], m["better"]) for m in cat if m["per_layer"] == per_layer]
            got = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
            self.assertEqual(got, want, key)

    def test_benchmark_json_within_contract_limits(self):
        b = BENCHMARK
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60 and isinstance(b["run_seconds"], int))
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME_RE)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))


class Runs(unittest.TestCase):
    def metric_names(self, key):
        return sorted(m["name"] for m in BENCHMARK[key])

    def test_clean_runs_print_every_end_to_end_metric(self):
        for workload in ("kv_uncontended", "kv_hot_contended", "sim_numa_kv"):
            with self.subTest(workload=workload):
                code, lines, res = bench("--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", "0")
                self.assertEqual(code, 0, lines[-5:])
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(sorted(res["metrics"]), self.metric_names("end_to_end"))
                units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
                for name, v in res["metrics"].items():
                    self.assertEqual(v["unit"], units[name])
                    self.assertGreater(v["value"], 0, name)
                self.assertTrue(any("samples=" in line for line in lines))

    def test_simulator_repeats_exactly(self):
        runs = [bench("--workload", "sim_numa_kv", "--seed", "9", "--seconds", "0.4", "--trace", "0")
                for _ in range(2)]
        simulated = ("ops_per_s", "op_latency_p50_ns", "op_latency_p99_ns", "fairness_factor")
        first = [runs[0][2]["metrics"][m]["value"] for m in simulated]
        second = [runs[1][2]["metrics"][m]["value"] for m in simulated]
        self.assertEqual(first, second)
        fingerprint = [[line for line in r[1] if "simulated fingerprint" in line] for r in runs]
        self.assertEqual(fingerprint[0], fingerprint[1])
        self.assertEqual(len(fingerprint[0]), 1)
        other = bench("--workload", "sim_numa_kv", "--seed", "10", "--seconds", "0.4", "--trace", "0")
        self.assertNotEqual([other[2]["metrics"][m]["value"] for m in simulated], first)

    def test_injected_fault_fails_every_op_and_exits_nonzero(self):
        for workload in ("kv_uncontended", "kv_hot_contended", "sim_numa_kv"):
            with self.subTest(workload=workload):
                code, lines, res = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                                         "--trace", "0", "--inject-fault")
                self.assertEqual(code, 1)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])
                self.assertTrue(any("CORRECTNESS CHECK FAILED" in line for line in lines))
                self.assertIn("failed_op_ratio = 1", "\n".join(lines))

    def test_traced_run_prints_every_per_layer_metric_and_writes_spans(self):
        out = os.path.join(BUILD, "test-trace.json")
        code, lines, res = bench("--workload", "sim_numa_kv", "--seed", "4", "--seconds", "1",
                                 "--trace", "1", "--trace-out", out)
        self.assertEqual(code, 0, lines[-5:])
        self.assertTrue(res["correct"])
        self.assertEqual(sorted(res["metrics"]), self.metric_names("per_layer"))
        with open(out) as f:
            events = json.load(f)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        self.assertGreater(len(spans), 0)
        ids = {e["args"]["id"] for e in spans}
        self.assertEqual(len(ids), len(spans))
        for e in spans:
            self.assertTrue(e["args"]["parent"] == 0 or e["args"]["parent"] in ids)
            self.assertTrue(e["args"]["op"] in ids)
        names = {e["name"] for e in spans}
        for layer in ("apps.kv.get", "locks.cna.acquire", "apps.avl.lookup", "telemetry.snapshot_all",
                      "locktable.guard"):
            self.assertIn(layer, names)

    def test_bad_arguments_are_rejected(self):
        self.assertEqual(bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")[0], 2)
        self.assertEqual(bench("--workload", "sim_numa_kv", "--seconds", "1", "--trace", "0")[0], 2)

    def test_tree_without_library_fails_without_result(self):
        iso = os.path.join(BUILD, "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(BENCH_DIR, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(iso, ".bench_build"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kv_uncontended", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=iso, env=env,
                           capture_output=True, text=True, timeout=170)
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
