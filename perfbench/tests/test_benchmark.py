"""Tests of the repository benchmark, in its short smoke mode.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

Each test builds the harness if needed (release mode, `.bench_build`) and
runs `perfbench/run.py --smoke`, which uses small inputs and a short load.
"""

import json
import math
import os
import subprocess
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
# Every workload the harness runs; BENCHMARK.json gates a subset.
WORKLOADS = ["sweep_detailed", "sweep_sampled", "serve_open"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=1):
    """Runs the benchmark in smoke mode; returns (info lines, result)."""
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def check_result(self, workload, trace, wanted):
        info, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        failed_checks = [l for l in info if l.startswith("CHECK FAILED")]
        self.assertTrue(result["correct"], f"{workload}: {failed_checks}")
        self.assertEqual(failed_checks, [])
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIsInstance(result["failed"], int)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted}, workload)
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if "bound" in m:
                self.assertGreater(got["value"], 0, f"{workload}: {m['name']} must never be 0")
        return info

    def test_end_to_end_metrics_for_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                info = self.check_result(w, 0, spec()["end_to_end"])
                self.assertTrue(any(l.startswith("digest ") for l in info), w)

    def test_per_layer_metrics_and_digests_for_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                info = self.check_result(w, 1, spec()["per_layer"])
                digests = [l.split()[1] for l in info if l.startswith("digest ")]
                self.assertEqual(len(digests), 2, info)
                self.assertEqual(digests[0], digests[1], "traced and untraced runs differ")

    def test_open_loop_health_is_reported(self):
        info, _ = run("serve_open", 0)
        health = [l for l in info if l.startswith("health ")]
        self.assertGreaterEqual(len(health), 2)
        for field in ("sent=", "ok=", "failed=", "retries=", "rejected_429=", "lag_ms_p99=",
                      "backlog_max="):
            self.assertTrue(all(field in l for l in health), field)

    def test_same_seed_same_inputs_and_reports(self):
        a, _ = run("sweep_detailed", 0, seed=5)
        b, _ = run("sweep_detailed", 0, seed=5)
        pick = lambda info: [l.split()[1] for l in info if l.startswith(("digest ", "sample:"))]
        self.assertEqual(pick(a), pick(b))


class HarnessUnitTests(unittest.TestCase):
    def test_cargo_tests_pass(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
        done = subprocess.run(
            ["cargo", "test", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/harness/Cargo.toml"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        s = spec()
        self.assertTrue({w["name"] for w in s["workloads"]} <= set(WORKLOADS))
        e2e = {m["name"]: m for m in s["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in s["end_to_end"]))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
