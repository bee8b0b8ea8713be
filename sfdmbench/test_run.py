"""The benchmark's own test: every workload in smoke mode (tiny inputs), once
untraced and once traced, passes its output checks and prints exactly the
metrics BENCHMARK.json names, with their units; the same seed gives the same
answers; an unknown workload fails without printing a result.

    python3 -m unittest discover -s sfdmbench -p 'test_*.py'

Run it from the root of a checkout; the first run builds (a few minutes).
"""
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join("sfdmbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):

    def test_every_workload_prints_every_metric(self):
        # The Structured Streaming workload is runnable by name, though not
        # listed in BENCHMARK.json (see sfdmbench/README.md).
        names = [w["name"] for w in SPEC["workloads"]] + ["census-m14-structured"]
        for name in names:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    code, lines = bench(name, trace)
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {m["name"]: m["unit"] for m in listed}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                    for metric, v in result["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), metric)

    def test_same_seed_same_answers(self):
        runs = [bench("adult-m2-sfdm1", 0, seed=3) for _ in range(2)]
        for code, _ in runs:
            self.assertEqual(code, 0)
        hashes = [[l for l in lines if "solution_hash" in l][0].split("solution_hash=")[1] for _, lines in runs]
        self.assertEqual(hashes[0], hashes[1])
        results = [json.loads(lines[-1])["metrics"] for _, lines in runs]
        for metric in ("stored_elems", "diversity"):
            self.assertEqual(results[0][metric]["value"], results[1][metric]["value"], metric)

    def test_unknown_workload_fails_without_a_result(self):
        code, lines = bench("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
