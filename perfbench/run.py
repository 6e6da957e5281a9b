"""Benchmark of the nrp solver loop, its exact oracle and its batch harness.

    python3 perfbench/run.py --workload ward-paper --seed 0 --seconds 20 --trace 0

Run from the repository root (any directory works: paths are taken from this
file).  The workloads and the outputs they must reproduce are listed in
perfbench/workloads.json; perfbench/README.md maps each layer to its metrics.
With --trace 0 the window is untraced and the end-to-end metrics of
BENCHMARK.json are printed; with --trace 1 half the time is measured untraced
and half with the shims of shims.py installed, and the per-layer metrics are
printed.  The last line of standard output is one JSON object.  Failed checks
are counted in it; the exit code is nonzero only when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the units of every pass")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _trace_run(workloads, shims, prep, setup, seconds, rng):
    """Untraced half, then traced half; returns per-layer figures and windows."""
    untraced = workloads.measure(prep, seconds / 2, rng)
    workloads.check_hash(prep, untraced)
    tracer = shims.install()
    traced = workloads.measure(prep, seconds / 2, rng)
    workloads.check_hash(prep, traced)
    if traced.first != untraced.first:
        traced.fail(1, "trace fidelity: the traced outputs differ from the untraced ones")
    windows = [untraced, traced]
    if not (untraced.unit_s and traced.unit_s):  # every call failed: nothing to report
        return {}, tracer.missing, windows
    base = workloads.end_to_end(prep, untraced)
    figures = shims.layer_metrics(tracer, traced.scale, {
        "iters_per_s": base["iters_per_s"][0] if prep.solver else 0.0,
        "trace_overhead": workloads.batch_s(traced) / workloads.batch_s(untraced) - 1,
        "runs": list(traced.first_run.values()),
        "pass_nodes": 0 if prep.solver else sum(o[2] for o in untraced.first.values()),
        "nodes_per_s": 0.0 if prep.solver else
        sum(o[2] for o in untraced.first.values()) / workloads.batch_s(untraced),
        "generate_s": setup["generate_s"],
        "roundtrip_s": setup["roundtrip_s"],
    })
    return figures, tracer.missing, windows


def main(argv=None, spec=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "nrp" / "__init__.py").is_file():
        print(f"perfbench: no nrp package under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import shims
    import workloads

    spec = spec if spec is not None else workloads.load_spec()
    if args.workload not in spec:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(spec)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        prep, setup = workloads.prepare(spec[args.workload])
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)

    if args.trace:
        values, missing, windows = _trace_run(workloads, shims, prep, setup, args.seconds, rng)
        listed = bench["per_layer"]
        table = {m["name"]: (values.get(m["name"]), m["unit"], "") for m in listed}
    else:
        window = workloads.measure(prep, args.seconds, rng)
        digest = workloads.check_hash(prep, window)
        windows, missing = [window], []
        listed = bench["end_to_end"]
        table = workloads.end_to_end(prep, window)
        table["setup_s"] = (setup["setup_s"], "s", f"median of {workloads.SETUP_REPEATS} set-ups")
        table["peak_rss_mb"] = (_peak_rss_mb(), "MB", "peak resident set of this process")
        if digest:
            print(f"{args.workload}: per-run CSV rows sha256 {digest}")

    for name, (value, unit, note) in table.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{args.workload:<13} {name:<40} {shown:>12} {unit:<6} {note}")
    missing += [name for name, (value, _, _) in table.items() if value is None]
    for name in missing:
        print(f"missing: {name}")
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    for window in windows:
        for error in window.errors:
            print(f"FAILED: {error}")
    metrics = {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]}
               for m in listed if m["name"] in table and table[m["name"]][0] is not None}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
