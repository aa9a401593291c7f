#!/usr/bin/env python3
"""Self-test of the benchmark's command, as the benchmark runs it.

    python3 perfbench/tests/test_bench.py      # from the checkout root

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, on a non-default seed; that fleet workers slowed through
CCD_SWEEP_TEST_RUN_DELAY_MS show up in wide_grid's traced run as a
dispatch wall-time regression beyond the wall-time bound; and that the
command fails without printing a result when the sources it measures are
absent.  Runs are the benchmark's own full grids, kept short with
--seconds 1: every untraced run still makes at least two passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=2, seconds=1, env=None, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, env=env)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                    result = result_of(proc)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expect = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expect)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float))
                        if key == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)
                    if key == "per_layer":
                        # Layer spans cover the traced wall time.
                        coverage = result["metrics"]["trace.span_coverage"]
                        self.assertGreaterEqual(coverage["value"], 0.9)


class RegressionTest(unittest.TestCase):
    def test_slowed_fleet_workers_exceed_the_bounds(self):
        # wide_grid's traced run sends its grid through run_dispatch; its
        # wall time must grow past the end-to-end wall bound.
        bound = {m["name"]: m["bound"]
                 for m in SPEC["end_to_end"]}["report_wall_s"]
        base = result_of(bench("wide_grid", 1))["metrics"]
        # 1 ms per run over 4,800 runs on 3 workers: about 1.6 s a pass.
        slow_env = dict(os.environ, CCD_SWEEP_TEST_RUN_DELAY_MS="1")
        slow_proc = bench("wide_grid", 1, env=slow_env)
        self.assertEqual(slow_proc.returncode, 0)
        slow = result_of(slow_proc)["metrics"]
        wall = slow["dispatch.wall_s"]["value"] / base["dispatch.wall_s"]["value"]
        self.assertGreater(wall - 1, bound)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_sources_it_measures(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            proc = bench("wide_grid", 0, cwd=tmp,
                         run=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
