"""Time each layer of the benchmark workloads' set-up.

    python3 tools/setup_rate.py [--repeats N]

For each workload in perfbench/workloads.json (the file is only read), it
builds the workload's instances N times (default 20), after one untimed
build, layer by layer as the benchmark's set-up builds them.  It prints one
row per workload, each figure the median over the builds, in ms, of a layer
summed over the workload's instances:

* generate: generate_instance;
* annotate: exact_solve for the optimum written into the text, on a
  workload that records one (0 on the others);
* serialize: serialize_instance;
* parse: parse_instance of that text;
* tables: the first read of the parsed instance's search tables;
* warm-up: the workload's warm-up, a short solver run or a node-capped
  proof on each parsed instance;
* total: the sum of the six.

The package is imported from this tree's src, so a copy of the tree at
another revision times that revision's code.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nrp.harness import execute, preset_spec  # noqa: E402
from nrp.instance_io import (  # noqa: E402
    GeneratorParams, generate_instance, parse_instance, serialize_instance,
)
from nrp.oracle import OPTIMAL, exact_solve  # noqa: E402

LAYERS = ("generate", "annotate", "serialize", "parse", "tables", "warm-up")


def build(spec: dict) -> dict[str, float]:
    """Seconds per layer over one build of the workload's instances."""
    seconds = dict.fromkeys(LAYERS, 0.0)

    def timed(layer, call, *args, **kwargs):
        start = time.perf_counter()
        result = call(*args, **kwargs)
        seconds[layer] += time.perf_counter() - start
        return result

    for entry in spec["instances"]:
        fields = {**spec["generator"], **entry}
        name = fields.pop("name")
        instance = timed("generate", generate_instance, GeneratorParams(**fields))
        if spec.get("annotate_optimum"):
            proof = timed("annotate", exact_solve, instance)
            if proof.status != OPTIMAL:
                raise SystemExit(f"{name}: exact_solve ended {proof.status}")
            instance = timed("annotate", replace, instance, known_optimal=proof.optimal_cost)
        text = timed("serialize", serialize_instance, instance)
        parsed = timed("parse", parse_instance, text)
        timed("tables", getattr, parsed, "reach")  # the first read builds all five
        if spec["kind"] == "solver":
            timed("warm-up", execute, parsed, preset_spec(spec["preset"], spec["warmup_iterations"]))
        else:
            timed("warm-up", exact_solve, parsed, spec["warmup_nodes"])
    return seconds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="timed builds (default 20)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    print(f"ms, median of {args.repeats} builds")
    print(f"{'workload':<14}{'instances':>10}" + "".join(f"{c:>10}" for c in (*LAYERS, "total")))
    for workload, spec in specs.items():
        build(spec)  # untimed
        builds = [build(spec) for _ in range(args.repeats)]
        medians = [statistics.median(b[layer] for b in builds) * 1e3 for layer in LAYERS]
        figures = "".join(f"{ms:>10.3f}" for ms in (*medians, sum(medians)))
        print(f"{workload:<14}{len(spec['instances']):>10}{figures}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
