"""Tests of the benchmark itself, on tiny inputs.

    python3 -m unittest perfbench/test_run.py      (from the checkout root)

- every workload, untraced and traced, emits every metric BENCHMARK.json
  names, with its unit, and its results match the reference;
- a deliberately corrupted reference cell makes ops fail, so the check can fail;
- without the program's sources the benchmark exits non-zero, printing no result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, corrupt=0, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--size", "tiny",
           "--corrupt-ref", str(corrupt)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(p):
    assert p.returncode == 0, p.stderr[-2000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = result(run(w, trace))
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({m: v["unit"] for m, v in r["metrics"].items()}, want)
                    self.assertTrue(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()))
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)

    def test_corrupted_reference_fails_ops(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(run(w, 0, corrupt=1))
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertLessEqual(r["failed"], r["attempted"])

    def test_fails_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__", ".bsp"))
        try:
            p = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
