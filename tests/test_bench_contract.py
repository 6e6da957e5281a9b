"""The benchmark's output contract: one JSON line with every declared metric.

perfbench/run.py is run as BENCHMARK.json runs it, on the smallest window of
each workload untraced and of the ward-paper workload traced, so a rename in
src/nrp that a benchmark shim or figure relies on, or a change to any
workload's recorded outputs (hash and optima), fails here rather than in the
benchmark's own run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS_MOVED_BY_A_RUN = (
    "reconstruct.nurses_per_iter",
    "eliminate.fitness_released_per_iter",
    "eliminate.random_released_per_iter",
    "model.coverage_calls_per_iter",
)


@pytest.mark.parametrize("workload, trace, group", [
    pytest.param("ward-paper", 0, "end_to_end", id="0-end_to_end"),
    pytest.param("ward-paper", 1, "per_layer", id="1-per_layer"),
    pytest.param("desk-batch", 0, "end_to_end", id="desk-batch-0-end_to_end"),
    pytest.param("oracle-proof", 0, "end_to_end", id="oracle-proof-0-end_to_end"),
])
def test_benchmark_prints_every_declared_metric(workload, trace, group):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert not [line for line in lines if line.startswith("missing:")]
    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    metrics = summary["metrics"]
    assert list(metrics) == [metric["name"] for metric in DECLARED[group]]
    if trace:
        for name in COUNTS_MOVED_BY_A_RUN:
            assert metrics[name]["value"] > 0, name
