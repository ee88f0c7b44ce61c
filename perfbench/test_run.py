"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build perfbench/ on first use (like run.py) and use a short simulated
length, so they check what the benchmark reports, not how fast it runs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SIM_SECONDS = 20


def setUpModule():
    run.ensure_build()


class EveryMetricTest(unittest.TestCase):
    def test_tiny_pass_emits_every_metric_with_its_unit(self):
        spec = run.load_spec()
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run_benchmark(workload, 3, 1, trace,
                                               SIM_SECONDS)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in spec[key]}
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        declared)


class MismatchTest(unittest.TestCase):
    def test_forced_summary_mismatch_is_a_failed_run(self):
        real = run.run_op
        seen = set()

        def flaky(mode, workload, seed, sim_seconds=None, extra=()):
            r = real(mode, workload, seed, sim_seconds, extra)
            if mode == "run" and r is not None:
                if seed in seen:
                    r["digest"] = "0" * 16
                seen.add(seed)
            return r

        run.run_op = flaky
        try:
            result = run.run_benchmark("lossy40_fast", 4, 1, 0, SIM_SECONDS)
        finally:
            run.run_op = real
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class SpanTest(unittest.TestCase):
    def test_child_spans_and_dispatch_self_add_up_to_the_run(self):
        profile = os.path.join(run.BUILD_DIR, "test-shard-profile.json")
        for workload in ("lossy40_fast", "baselines160"):
            with self.subTest(workload=workload):
                r = run.run_op("trace", workload, 5, SIM_SECONDS,
                               ["--profile", profile])
                self.assertIsNotNone(r)
                self.assertEqual(r["failures"], [])
                m = r["metrics"]
                self.assertGreater(m["event.run_s"], 0.0)
                self.assertAlmostEqual(
                    m["event.children_s"] + m["event.dispatch_self_s"],
                    m["event.run_s"], delta=1e-6 * m["event.run_s"])
                # Publish and deliver spans sit inside the run span.
                self.assertLessEqual(
                    m["routing.publish_s"] + m["sim.deliver_s"],
                    m["event.children_s"] + 1e-9)


class BareDirectoryTest(unittest.TestCase):
    def test_without_sources_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper160",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(result.returncode, 0)
            for line in result.stdout.splitlines():
                with self.assertRaises(ValueError):
                    json.loads(line)


if __name__ == "__main__":
    unittest.main()
