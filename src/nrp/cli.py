"""Command line interface: solve, batch, ablate, exact, gen.

Exit codes: 0 success (and a feasible best for solve), 1 any error,
2 infeasible best (solve) and 3 exact-solver timeout.  Every error is one
line starting "error:": the commands raise ValueError or OSError and main
alone turns it into that line and exit 1 (argparse's own errors take the
same form).  batch and ablate share the instance files, --runs, --base-seed
and --out; solve and batch share the solver flags.  batch and ablate load
their files themselves: one such line per file that fails to parse, and
they go on with the rest.  A warning, such as one for a pattern that works
no period, is one line starting "warning:"; batch and ablate put the file's
path after it, as in their error lines, and print each file's lines in file
order, its warnings before its error.  An output path (--out, --per-run,
--annotate) that is a directory, or whose parent is not one, is an error
before any file is loaded, and so is an output path of batch or ablate
that resolves to one of its instance files or to its other output.  Batch
parallelism is set by the NRP_THREADS environment variable (default 1),
capped at the CPUs the process may run on; harness.worker_count reads it,
and batch and ablate call it before loading any instance, so a value that
is not a positive integer ends in an error before any run.  gen has one
flag per GeneratorParams field, --feasible-min for feasible_min, each
defaulting to the field's default; every instance it writes runs through
solve, batch and ablate with default flags.  exact prints the search's
wall time after its counters.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

from . import harness, oracle
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


def _w_grade(recon: ReconstructionConfig, text: str | None) -> ReconstructionConfig:
    """recon with --w-grade's comma-separated weights, band 1 first, if given.

    Only the numbers are parsed here: the config's own check decides which
    weights it takes, and its ValueError is raised again naming the flag.
    """
    if text is None:
        return recon
    try:
        weights = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--w-grade: expected numbers like 8,2,1, got {text!r}") from None
    try:
        return replace(recon, w_grade=weights)
    except ValueError as exc:
        raise ValueError(f"--w-grade: {exc}, got {text!r}") from None


def _given(**values) -> dict:
    """The keyword arguments whose flag was given (is not None)."""
    return {name: value for name, value in values.items() if value is not None}


def _build_spec(args, seed: int) -> harness.RunSpec:
    """The preset's spec with every given flag replaced; the configs validate each value."""
    spec = harness.preset_spec(args.preset, max_iterations=args.max_iters, seed=seed)
    config = spec.config
    config = replace(
        config,
        elim=replace(config.elim, **_given(r_m=args.rm, fixed_threshold=args.fixed_rs)),
        recon=_w_grade(replace(config.recon, **_given(
            p1=args.p1, p2=args.p2, e_mode=args.e_mode)), args.w_grade),
        eval_weights=replace(config.eval_weights, **_given(w1=args.w1, w_demand=args.wdemand)),
        stop_at_known_optimal=config.stop_at_known_optimal and not args.no_stop_at_optimal,
    )
    return replace(spec, config=config)


def _check_parent(path: str | None) -> None:
    """Raise ValueError unless path is empty, or is no directory and its parent is one."""
    if path and Path(path).is_dir():
        raise ValueError(f"{path} is a directory")
    if path and not Path(path).parent.is_dir():
        raise ValueError(f"{path}: {Path(path).parent} is not a directory")


def _load_batch(paths: list[str], *outputs: str | None):
    """Check the batch set-up, then load the instances that parse, named by file.

    An instance is named by its file's base name without the extension.  A
    bad NRP_THREADS, two files of one name, an output path that
    _check_parent refuses, or one that resolves to an instance file or to
    the other output, raises ValueError before any instance is loaded: batch
    results are written only after every run, so no run's time is lost to
    them.  Each file that fails to parse gets one error line, and each parse
    warning is issued again after its file's path, so one file's warning
    never hides another's.  A file's warnings, from the lines read before it
    failed, come before its error line.  An empty list means none parsed.
    """
    harness.worker_count()  # raises on a bad NRP_THREADS
    files: dict[str, str] = {}  # a name -> its file
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in files:
            raise ValueError(f"instance files {files[name]} and {path} share the name {name!r}")
        files[name] = path
    taken = {Path(path).resolve(): f"instance file {path}" for path in paths}
    for out in filter(None, outputs):
        _check_parent(out)
        target = Path(out).resolve()
        if target in taken:
            raise ValueError(f"output {out} is the same file as {taken[target]}")
        taken[target] = f"output {out}"
    named = []
    for name, path in files.items():
        failure = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                named.append((name, load_instance(path)))
            except (OSError, ValueError) as exc:
                failure = exc
        for warning in caught:
            warnings.warn(f"{path}: {warning.message}", warning.category, stacklevel=2)
        if failure is not None:  # after its warnings, which come from earlier lines
            print(f"error: {path}: {failure}", file=sys.stderr)
    return named


def _write(text: str, path: str | None) -> None:
    """Write text to path, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    spec = _build_spec(args, seed=args.seed)
    result = harness.execute(instance, spec)
    print(f"instance: {args.instance}")
    print(f"best cost: {harness.format_cost(result.best_cost)}")
    print(f"feasible: {'yes' if result.best_feasible else 'no'}")
    print(f"iteration of best: {result.iteration_of_best}")
    print(f"iterations executed: {result.iterations_executed}")
    print(f"wall time: {result.wall_time:.2f}s")
    return EXIT_OK if result.best_feasible else EXIT_INFEASIBLE


def _cmd_batch(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    spec = _build_spec(args, seed=args.base_seed)
    named = _load_batch(args.instances, args.out, args.per_run)
    if not named:
        return EXIT_ERROR

    stats = []
    per_run_lines = [harness.RUN_CSV_HEADER]
    for name, instance in named:
        results = harness.run_batch(instance, spec, args.runs, args.base_seed)
        stats.append(harness.compute_batch_stats(name, instance.known_optimal, results))
        per_run_lines.extend(harness.run_csv_row(name, r) for r in results)

    _write(harness.batch_csv(stats), args.out)
    if args.per_run:
        _write("\n".join(per_run_lines) + "\n", args.per_run)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    spec = harness.AblationSpec(
        presets=tuple(args.presets),
        budgets=tuple(args.budgets),
        preset_iterations=args.preset_iters,
        runs=args.runs,
        base_seed=args.base_seed,
    )
    named = _load_batch(args.instances, args.out)
    if not named:
        return EXIT_ERROR
    _write(harness.ablation_csv(named, spec), args.out)
    return EXIT_OK


def _cmd_exact(args) -> int:
    _check_parent(args.annotate)  # before the proof, which can take long
    instance = load_instance(args.instance)
    started = time.perf_counter()
    result = oracle.exact_solve(instance, node_budget=args.node_budget)
    wall_time = time.perf_counter() - started
    print(f"status: {result.status}")
    if result.optimal_cost is not None:
        print(f"cost: {result.optimal_cost}")
    print(f"nodes explored: {result.nodes_explored}")
    print(f"cost cuts: {result.cost_cuts}")
    print(f"coverage cuts: {result.coverage_cuts}")
    print(f"components: {result.components}")
    print(f"wall time: {wall_time:.2f}s")
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
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.node_budget < 1:
        raise ValueError("--node-budget must be >= 1")
    params = GeneratorParams(**{f.name: getattr(args, f.name) for f in fields(GeneratorParams)})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        instance = generate_instance(replace(params, seed=params.seed + k))
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

    config = argparse.ArgumentParser(add_help=False)  # the solver flags of solve and batch
    config.add_argument("--preset", default="full", choices=harness.PRESET_NAMES,
                        help="configuration preset (default: full); construct-only "
                             "ignores --max-iters, --rm, --fixed-rs, --w1 and "
                             "--no-stop-at-optimal")
    config.add_argument("--max-iters", type=int, default=50_000)
    config.add_argument("--rm", type=float, help="random elimination rate r_m")
    config.add_argument("--fixed-rs", type=float,
                        help="fixed survival threshold instead of a random one per iteration")
    config.add_argument("--p1", type=float, help="cover rule probability")
    config.add_argument("--p2", type=float, help="combined rule probability")
    config.add_argument("--w1", type=float,
                        help="preference fitness weight; coverage weighs 1 - w1")
    config.add_argument("--wdemand", type=float, help="penalty per uncovered shift")
    config.add_argument("--e-mode", choices=E_MODES,
                        help="combined-rule shortfall term: indicator or shortfall")
    config.add_argument("--w-grade", metavar="W1,W2,...",
                        help="combined-rule weight per grade band, band 1 first "
                             "(default 8,2,1); the last weight also covers every "
                             "band past the list")
    config.add_argument("--no-stop-at-optimal", action="store_true",
                        help="keep iterating even after reaching a known optimum")

    inputs = argparse.ArgumentParser(add_help=False)  # the files and runs of batch and ablate
    inputs.add_argument("instances", nargs="+")
    inputs.add_argument("--runs", type=int, default=20)
    inputs.add_argument("--base-seed", type=int, default=0)
    inputs.add_argument("--out", help="write the CSV here instead of stdout")

    p = sub.add_parser("solve", parents=[config], help="solve a single instance")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("batch", parents=[inputs, config],
                       help="multi-seed batches with summary statistics")
    p.add_argument("--per-run", help="also write one CSV row per run to this path")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("ablate", parents=[inputs], help="preset/budget matrix of censored means")
    p.add_argument("--budgets", type=int, nargs="*", default=list(harness.DEFAULT_BUDGETS))
    p.add_argument("--presets", nargs="*", default=list(harness.PRESET_NAMES),
                   choices=harness.PRESET_NAMES)
    p.add_argument("--preset-iters", type=int, default=50_000)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("exact", help="exact branch-and-bound solve")
    p.add_argument("instance")
    p.add_argument("--node-budget", type=int, default=oracle.NODE_BUDGET)
    p.add_argument("--annotate", help="write a copy of the instance with OPTIMAL embedded")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("gen", help="generate random instance files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    for f in fields(GeneratorParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                       help=f"GeneratorParams.{f.name} (default: %(default)s)")
    p.add_argument("--with-optimal", action="store_true")
    p.add_argument("--node-budget", type=int, default=oracle.NODE_BUDGET)
    p.set_defaults(func=_cmd_gen)

    return parser


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn  # one line per warning, restored on exit
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:  # a bad file, flag, value or output path
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
