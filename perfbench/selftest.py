"""Self-test of the benchmark itself; it is not part of the repository's tests.

    python3 perfbench/selftest.py

Runs every workload in both modes with a one-second window (one pass each)
and checks the printed result, that the traced run separates the layers as
README.md says, and that an altered expected hash is counted as a failure.
It takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# end-to-end figures each workload prints, whether or not BENCHMARK.json bounds them
COMMON = ["batch_s", "run_s.p50", "mean_censored", "failed_share", "setup_s", "peak_rss_mb"]
PRINTED = {
    "ward-paper": COMMON + ["iters_per_s"],
    "desk-batch": COMMON + ["iters_per_s", "run_s.p90", "optimal_share"],
    "oracle-proof": COMMON + ["proof_set_s", "optimal_share"],
}


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.untraced = {w: bench(w, 0) for w in WORKLOADS}
        cls.traced = {w: bench(w, 1) for w in WORKLOADS}

    def check_result(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for m in listed:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_prints_every_end_to_end_figure(self):
        for workload, (lines, result) in self.untraced.items():
            with self.subTest(workload=workload):
                self.check_result(result, BENCHMARK["end_to_end"])
                printed = {line.split()[1] for line in lines if line.startswith(workload)}
                self.assertLessEqual(set(PRINTED[workload]), printed)

    def test_traced_prints_every_layer_metric(self):
        for workload, (lines, result) in self.traced.items():
            with self.subTest(workload=workload):
                self.check_result(result, BENCHMARK["per_layer"])
                self.assertFalse([line for line in lines if line.startswith("missing")])

    def test_workloads_load_different_layers(self):
        value = {w: {k: v["value"] for k, v in r["metrics"].items()}
                 for w, (_, r) in self.traced.items()}
        self.assertGreaterEqual(value["ward-paper"]["reconstruct.share"], 0.85)
        self.assertLessEqual(value["desk-batch"]["reconstruct.share"], 0.6)
        self.assertEqual(value["oracle-proof"]["reconstruct.share"], 0)
        self.assertGreater(value["oracle-proof"]["oracle.nodes"], 0)
        self.assertEqual(value["ward-paper"]["oracle.nodes"], 0)
        self.assertEqual(value["desk-batch"]["oracle.nodes"], 0)


class Gate(unittest.TestCase):
    def test_altered_hash_counts_as_failed(self):
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        import run
        import workloads

        spec = workloads.load_spec()
        spec["desk-batch"]["expected_sha256"] = "0" * 64
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "desk-batch", "--seed", "7", "--seconds", "1"], spec=spec)
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertIn("failed_share", out.getvalue())


if __name__ == "__main__":
    unittest.main()
