"""Command line interface: solve, batch, ablate, exact, gen.

Exit codes: 0 success (and a feasible best for solve), 1 any error,
2 infeasible best (solve) and 3 exact-solver timeout.  Batch parallelism
is set by the NRP_THREADS environment variable (default 1), capped at the
CPU count; batch and ablate reject a value that is not a positive integer.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, oracle
from .evaluate import EvalWeights
from .instance_io import GeneratorParams, generate_instance, load_instance, save_instance
from .reconstruct import E_MODES, ReconstructionConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 with one line, as every other error does;
    # exit 2 is reserved for "ran fine, best infeasible"
    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {message} (see {self.prog} --help)\n")


def _w_grade(text: str | None) -> tuple[float, ...] | None:
    """Parse --w-grade: comma-separated non-negative numbers, band 1 first."""
    if text is None:
        return None
    try:
        weights = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--w-grade: expected numbers like 8,2,1, got {text!r}") from None
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError(f"--w-grade: weights must be non-negative numbers, got {text!r}")
    return weights


def _add_w_grade_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--w-grade", default=None, metavar="W1,W2,...",
                        help="combined-rule weight per grade band, band 1 first "
                             "(default 8,2,1); an instance with g bands needs g of them")


def _check_grade_weights(named, weights: EvalWeights) -> None:
    """Raise ValueError naming the first instance weights has too few bands for."""
    for name, instance in named:
        try:
            weights.check_bands(instance.g)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}; pass one per band with --w-grade") from None


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="full", choices=harness.PRESET_NAMES,
                        help="configuration preset (default: full)")
    parser.add_argument("--max-iters", type=int, default=50_000)
    parser.add_argument("--rm", type=float, default=None,
                        help="random elimination rate r_m")
    parser.add_argument("--fixed-rs", type=float, default=None,
                        help="fixed survival threshold instead of a random one per iteration")
    parser.add_argument("--p1", type=float, default=None, help="cover rule probability")
    parser.add_argument("--p2", type=float, default=None, help="combined rule probability")
    parser.add_argument("--p3", type=float, default=None, help="random rule probability")
    parser.add_argument("--w1", type=float, default=None, help="preference fitness weight")
    parser.add_argument("--w2", type=float, default=None, help="coverage fitness weight")
    parser.add_argument("--wdemand", type=float, default=None,
                        help="penalty per uncovered shift")
    parser.add_argument("--e-mode", choices=E_MODES, default=None,
                        help="combined-rule shortfall term: indicator or shortfall")
    _add_w_grade_flag(parser)
    parser.add_argument("--no-stop-at-optimal", action="store_true",
                        help="keep iterating even after reaching a known optimum")


def _check_batch_setup(*outputs: str | None) -> None:
    """Raise ValueError for a bad NRP_THREADS or an output without a directory.

    Batch results are written only after every run, so these are checked
    before any instance is loaded and no run's time is lost to them.
    """
    threads = os.environ.get("NRP_THREADS")
    if threads is not None:
        try:
            valid = int(threads) >= 1
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"NRP_THREADS must be a positive integer, got {threads!r}")
    for out in outputs:
        if out is not None and not Path(out).parent.is_dir():
            raise ValueError(f"{out}: {Path(out).parent} is not a directory")


def _build_spec(args, seed: int) -> harness.RunSpec:
    spec = harness.preset_spec(args.preset, max_iterations=args.max_iters, seed=seed)
    config = spec.config

    if args.rm is not None or args.fixed_rs is not None:
        elim = config.elim
        if args.rm is not None:
            elim = replace(elim, r_m=args.rm)
        if args.fixed_rs is not None:
            elim = replace(elim, fixed_threshold=args.fixed_rs)
        config = replace(config, elim=elim)

    if any(p is not None for p in (args.p1, args.p2, args.p3)) or args.e_mode is not None:
        recon = config.recon
        config = replace(config, recon=ReconstructionConfig(
            p1=recon.p1 if args.p1 is None else args.p1,
            p2=recon.p2 if args.p2 is None else args.p2,
            p3=recon.p3 if args.p3 is None else args.p3,
            e_mode=recon.e_mode if args.e_mode is None else args.e_mode,
        ))

    if args.w1 is not None or args.w2 is not None or args.wdemand is not None:
        weights = config.eval_weights
        w1 = args.w1 if args.w1 is not None else (1.0 - args.w2 if args.w2 is not None else weights.w1)
        w2 = args.w2 if args.w2 is not None else 1.0 - w1
        config = replace(config, eval_weights=replace(
            weights, w1=w1, w2=w2,
            w_demand=args.wdemand if args.wdemand is not None else weights.w_demand,
        ))

    if args.no_stop_at_optimal:
        config = replace(config, stop_at_known_optimal=False)
    spec = replace(spec, config=config)
    w_grade = _w_grade(args.w_grade)
    if w_grade is not None:
        spec = harness.with_w_grade(spec, w_grade)
    return spec


def _cmd_solve(args) -> int:
    try:
        instance = load_instance(args.instance)
        spec = _build_spec(args, seed=args.seed)
        _check_grade_weights([(args.instance, instance)], spec.config.eval_weights)
        result = harness.execute(instance, spec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"instance: {args.instance}")
    print(f"best cost: {harness.format_cost(result.best_cost)}")
    print(f"feasible: {'yes' if result.best_feasible else 'no'}")
    print(f"iteration of best: {result.iteration_of_best}")
    print(f"iterations executed: {result.iterations_executed}")
    print(f"wall time: {result.wall_time:.2f}s")
    return EXIT_OK if result.best_feasible else EXIT_INFEASIBLE


def _cmd_batch(args) -> int:
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    try:
        spec = _build_spec(args, seed=args.base_seed)
        _check_batch_setup(args.out, args.per_run)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    named, errors = harness.load_named_instances(args.instances)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    if not named:
        return EXIT_ERROR
    try:
        _check_grade_weights(named, spec.config.eval_weights)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    stats = []
    per_run_lines = [harness.RUN_CSV_HEADER]
    for name, instance in named:
        results = harness.run_batch(instance, spec, args.runs, args.base_seed)
        stats.append(harness.compute_batch_stats(name, instance.known_optimal, results))
        per_run_lines.extend(harness.run_csv_row(name, r) for r in results)

    csv_text = harness.batch_csv(stats)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(csv_text)
    if args.per_run:
        Path(args.per_run).write_text(
            "\n".join(per_run_lines) + "\n", encoding="utf-8", newline="\n"
        )
    return EXIT_OK


def _cmd_ablate(args) -> int:
    try:
        spec = harness.AblationSpec(
            presets=tuple(args.presets),
            budgets=tuple(args.budgets),
            preset_iterations=args.preset_iters,
            runs=args.runs,
            base_seed=args.base_seed,
            w_grade=_w_grade(args.w_grade) or harness.AblationSpec.w_grade,
        )
        _check_batch_setup(args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    named, errors = harness.load_named_instances(args.instances)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    if not named:
        return EXIT_ERROR
    try:
        _check_grade_weights(named, EvalWeights(w_grade=spec.w_grade))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    csv_text = harness.ablation_csv(named, spec)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_exact(args) -> int:
    try:
        instance = load_instance(args.instance)
        result = oracle.exact_solve(instance, node_budget=args.node_budget)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"status: {result.status}")
    if result.optimal_cost is not None:
        print(f"cost: {result.optimal_cost}")
    print(f"nodes explored: {result.nodes_explored}")
    print(f"cost cuts: {result.cost_cuts}")
    print(f"coverage cuts: {result.coverage_cuts}")
    if args.annotate:
        if result.status == oracle.OPTIMAL:
            annotated = replace(instance, known_optimal=result.optimal_cost)
            save_instance(annotated, args.annotate)
            print(f"wrote annotated copy: {args.annotate}")
        else:
            print("no optimum proven; annotated copy not written", file=sys.stderr)
    if result.status == oracle.OPTIMAL:
        return EXIT_OK
    if result.status == oracle.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_TIMEOUT


def _cmd_gen(args) -> int:
    # every flag is checked before the output directory or any file is written
    try:
        if args.count < 1:
            raise ValueError("--count must be >= 1")
        if args.node_budget < 1:
            raise ValueError("--node-budget must be >= 1")
        params = GeneratorParams(
            n=args.n,
            m=args.m,
            g=args.g,
            feasible_min=args.feasible_min,
            feasible_max=args.feasible_max,
            cost_exponent=args.cost_exponent,
            tightness=args.tightness,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        instance = generate_instance(replace(params, seed=args.seed + k))
        if args.with_optimal:
            result = oracle.exact_solve(instance, node_budget=args.node_budget)
            if result.status == oracle.OPTIMAL:
                instance = replace(instance, known_optimal=result.optimal_cost)
            else:
                print(
                    f"warning: instance {k}: exact solve ended with {result.status}; "
                    "written without OPTIMAL",
                    file=sys.stderr,
                )
        save_instance(instance, out_dir / f"inst_{k:03d}.nrp")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nrp", description="Nurse rostering solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="solve a single instance")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("batch", help="multi-seed batches with summary statistics")
    p.add_argument("instances", nargs="+")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", help="write the summary CSV here instead of stdout")
    p.add_argument("--per-run", help="also write one CSV row per run to this path")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("ablate", help="preset/budget matrix of censored means")
    p.add_argument("instances", nargs="+")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--budgets", type=int, nargs="*", default=list(harness.DEFAULT_BUDGETS))
    p.add_argument("--presets", nargs="*", default=list(harness.PRESET_NAMES),
                   choices=harness.PRESET_NAMES)
    p.add_argument("--preset-iters", type=int, default=50_000)
    _add_w_grade_flag(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("exact", help="exact branch-and-bound solve")
    p.add_argument("instance")
    p.add_argument("--node-budget", type=int, default=10_000_000)
    p.add_argument("--annotate", help="write a copy of the instance with OPTIMAL embedded")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("gen", help="generate random instance files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m", type=int, default=12)
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--feasible-min", type=int, default=2)
    p.add_argument("--feasible-max", type=int, default=8)
    p.add_argument("--tightness", type=float, default=0.8)
    p.add_argument("--cost-exponent", type=float, default=2.0)
    p.add_argument("--with-optimal", action="store_true")
    p.add_argument("--node-budget", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
