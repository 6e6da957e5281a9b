"""Time the exact solver on the oracle-proof workload's instances.

    python3 tools/oracle_rate.py [--passes N]

Builds the instances that perfbench/workloads.json lists under
oracle-proof (the file is only read), then runs N passes (default 20) of
exact_solve over them with that workload's node budget.  Each proof must
end OPTIMAL at the workload's expected optimum, else the tool exits 1.
It prints, as medians over the passes:

* proofs/s and nodes/s of exact_solve;
* the share of a proof's time that _components and _tables take, the
  set-up before the search's first node, timed in separate calls after
  each pass's proofs.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nrp.instance_io import GeneratorParams, generate_instance  # noqa: E402
from nrp.oracle import OPTIMAL, _components, _tables, exact_solve  # noqa: E402


def load_instances() -> tuple[dict, list]:
    """The oracle-proof spec and its (name, instance) pairs, in file order."""
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["oracle-proof"]
    instances = []
    for entry in spec["instances"]:
        fields = {**spec["generator"], **entry}
        name = fields.pop("name")
        instances.append((name, generate_instance(GeneratorParams(**fields))))
    return spec, instances


def one_pass(spec: dict, instances: list) -> tuple[float, float, float, int]:
    """Seconds in exact_solve, in _components and in _tables, and the nodes,
    over one pass.  The proofs are timed first, as one run over every
    instance, so that no set-up call made only for its timing warms them."""
    start = time.perf_counter()
    results = [exact_solve(instance, node_budget=spec["node_budget"]) for _, instance in instances]
    solve_s = time.perf_counter() - start
    components_s = tables_s = 0.0
    for (name, instance), result in zip(instances, results):
        expected = spec["expected_optima"][name]
        if result.status != OPTIMAL or result.optimal_cost != expected:
            raise SystemExit(f"{name}: {result.status} {result.optimal_cost}, expected {expected}")
        start = time.perf_counter()
        components, _ = _components(instance)
        split = time.perf_counter()
        for ids, _ in components:
            _tables(instance, ids)
        components_s += split - start
        tables_s += time.perf_counter() - split
    return solve_s, components_s, tables_s, sum(result.nodes_explored for result in results)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=20, help="timed passes (default 20)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    spec, instances = load_instances()
    one_pass(spec, instances)  # warm-up, untimed
    passes = [one_pass(spec, instances) for _ in range(args.passes)]
    pass_s = statistics.median(solve for solve, _, _, _ in passes)
    nodes = passes[0][3]  # a proof explores the same nodes in every pass
    figures = {
        "instances": len(instances),
        "passes": args.passes,
        "pass_ms": f"{pass_s * 1e3:.3f}",
        "proofs/s": f"{len(instances) / pass_s:.1f}",
        "nodes": nodes,
        "nodes/s": f"{nodes / pass_s:.0f}",
        "components_ms": f"{statistics.median(c for _, c, _, _ in passes) * 1e3:.3f}",
        "tables_ms": f"{statistics.median(t for _, _, t, _ in passes) * 1e3:.3f}",
        "setup_share": f"{statistics.median((c + t) / s for s, c, t, _ in passes):.3f}",
    }
    for name, value in figures.items():
        print(f"{name:<14}{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
