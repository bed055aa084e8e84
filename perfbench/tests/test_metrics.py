"""Checks the benchmark's metric vocabulary against BENCHMARK.json.

Run through `python3 perfbench/run.py --self-test`, which builds the binary
and points PERFBENCH_BUILD_DIR at it. Without that variable the tests that
need the binary are skipped.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_benchmark_json()

    def test_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertIn(self.spec["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.spec["per_layer"]) <= 128)

    def test_names_units_and_bounds(self):
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME_RE)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_check_result(self):
        want = run.declared(self.spec, trace=False)
        good = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": u}
                            for n, u in want.items()}}
        self.assertEqual(run.check_result(good, self.spec, False), [])
        bad = json.loads(json.dumps(good))
        bad["metrics"]["not_declared"] = {"value": 1.0, "unit": "s"}
        del bad["metrics"]["setup_s"]
        problems = run.check_result(bad, self.spec, False)
        self.assertTrue(any("not_declared" in p for p in problems))
        self.assertTrue(any("setup_s is missing" in p for p in problems))
        bad = json.loads(json.dumps(good))
        bad["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(bad, self.spec, False))
        bad = json.loads(json.dumps(good))
        bad["correct"] = False
        self.assertTrue(run.check_result(bad, self.spec, False))


@unittest.skipUnless(os.environ.get("PERFBENCH_BUILD_DIR"),
                     "needs the built benchmark (run.py --self-test)")
class BinaryVocabularyTest(unittest.TestCase):
    def test_binary_emits_exactly_the_declared_metrics(self):
        binary = os.path.join(os.environ["PERFBENCH_BUILD_DIR"],
                              "stateslice_perfbench")
        out = subprocess.run([binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        listed = json.loads(out)
        spec = run.load_benchmark_json()
        for key, trace in (("end_to_end", False), ("per_layer", True)):
            emitted = {name: unit for name, unit in listed[key]}
            for name in emitted:
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertEqual(emitted, run.declared(spec, trace), key)


if __name__ == "__main__":
    unittest.main()
