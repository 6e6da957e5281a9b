"""Batch running, benchmark statistics, presets and ablation matrices.

A batch runs one instance many times under consecutive seeds and reduces
the results to the usual table row: best, censored mean (infeasible runs
count as 255), number of infeasible runs, and how many runs ended optimal
or within three cost units of the optimum.  The runs of a batch go to up to
worker_count() processes, read from the NRP_THREADS environment variable
(default 1, capped at the CPUs the process may run on), unless the
caller passes threads.
The process pool's modules load only when a batch runs on more than one
worker, so a sequential batch never imports multiprocessing.
Presets name the standard configuration plus the single-mechanism variants
used for ablations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

from .eliminate import EliminationConfig
from .model import Instance
from .reconstruct import ReconstructionConfig
from .solver import RNG_KIND, RunResult, SolverConfig, run, run_construction_only

CENSOR_COST = 255.0  # stand-in cost for runs that never reach feasibility

# each preset's SolverConfig fields besides max_iterations and seed
PRESETS = {
    "full": {},
    "elim1-fixed05": {"elim": EliminationConfig(fixed_threshold=0.5)},
    "elim1-only": {"elim": EliminationConfig(enable_random_elim=False)},
    "elim2-only": {"elim": EliminationConfig(enable_fitness_elim=False)},
    "cover-only": {"recon": ReconstructionConfig(p1=1.0, p2=0.0)},
    "combined-only": {"recon": ReconstructionConfig(p1=0.0, p2=1.0)},
    "construct-only": {},  # the single reconstruction pass, not the loop
}
PRESET_NAMES = tuple(PRESETS)

DEFAULT_BUDGETS = (10_000, 20_000, 30_000, 50_000, 100_000)


@dataclass(frozen=True)
class RunSpec:
    """A solver configuration plus the choice of loop vs single-pass baseline."""

    config: SolverConfig
    construction_only: bool = False


def preset_spec(name: str, max_iterations: int = 50_000, seed: int = 0) -> RunSpec:
    """Named configuration presets; see PRESETS."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    config = SolverConfig(max_iterations=max_iterations, seed=seed, **PRESETS[name])
    return RunSpec(config, construction_only=name == "construct-only")


def execute(instance: Instance, spec: RunSpec) -> RunResult:
    if spec.construction_only:
        return run_construction_only(instance, spec.config)
    return run(instance, spec.config)


def worker_count() -> int:
    """Batch parallelism from NRP_THREADS (default 1), at most the CPU count.

    The CPUs counted are the ones this process may run on, its affinity
    set, where the platform reports one (os.sched_getaffinity), and
    os.cpu_count() elsewhere.  Raises ValueError when the variable is set
    to anything but a positive integer.
    """
    text = os.environ.get("NRP_THREADS", "1")
    try:
        wanted = int(text)
    except ValueError:
        wanted = 0
    if wanted < 1:
        raise ValueError(f"NRP_THREADS must be a positive integer, got {text!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(wanted, cpus or 1)


def run_batch(
    instance: Instance, spec: RunSpec, runs: int, base_seed: int, threads: int | None = None
) -> list[RunResult]:
    """runs independent executions with seeds base_seed, base_seed+1, ...

    threads (default worker_count()) caps the worker processes; the results
    come back in seed order either way.  Raises ValueError when runs or
    threads is below 1.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    specs = [replace(spec, config=replace(spec.config, seed=base_seed + k)) for k in range(runs)]
    threads = min(worker_count() if threads is None else threads, runs)
    if threads <= 1:
        return [execute(instance, run_spec) for run_spec in specs]
    # imported here so that a sequential batch never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # each worker receives the instance once, through the pool's initializer,
    # and each task only its RunSpec; build the search tables here, so that
    # no worker builds its own
    instance.search_tables()
    with ProcessPoolExecutor(threads, initializer=_keep, initargs=(instance,)) as pool:
        return list(pool.map(_execute_kept, specs))


_kept: Instance | None = None  # a pool worker's batch instance, set by _keep


def _keep(instance: Instance) -> None:
    global _kept
    _kept = instance


def _execute_kept(spec: RunSpec) -> RunResult:
    return execute(_kept, spec)


def censored_cost(result: RunResult) -> float:
    """Run cost for statistics: actual cost if feasible, else CENSOR_COST."""
    return result.best_cost if result.best_feasible else CENSOR_COST


@dataclass
class BatchStats:
    """One instance's reduction of a multi-seed batch."""

    name: str
    runs: int
    best: float
    mean_censored: float
    inf_count: int
    optimal_count: int | None  # None when the instance has no known optimum
    within3_count: int | None
    known_optimal: int | None


def compute_batch_stats(
    name: str, known_optimal: int | None, results: list[RunResult]
) -> BatchStats:
    values = [censored_cost(r) for r in results]
    feasible = [r.best_cost for r in results if r.best_feasible]
    if known_optimal is None:
        optimal_count = within3_count = None
    else:
        optimal_count = sum(cost <= known_optimal for cost in feasible)
        within3_count = sum(cost <= known_optimal + 3 for cost in feasible)
    return BatchStats(
        name=name,
        runs=len(results),
        best=min(values),
        mean_censored=sum(values) / len(values),
        inf_count=len(results) - len(feasible),
        optimal_count=optimal_count,
        within3_count=within3_count,
        known_optimal=known_optimal,
    )


def format_cost(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.1f}"


def _column_means(rows: list[list]) -> list[float | None]:
    """Each column's mean, summed left to right in row order; None for a
    column with a None cell.  Plain adds, not sum(): since Python 3.12,
    sum() compensates float rounding, which can move a printed mean."""
    return [None if None in column else reduce(add, column) / len(rows) for column in zip(*rows)]


BATCH_CSV_HEADER = "instance,runs,best,mean_censored,inf,optimal_count,within3"


def batch_csv(stats: list[BatchStats]) -> str:
    """CSV with one row per instance plus the Av. and % summary rows.

    Av. holds the column means; its two count cells are blank unless every
    instance has a known optimum.  % holds 100 * (Av. best - Av. optimum) /
    Av. optimum, and the same for the censored mean; both are blank when an
    optimum is missing or Av. optimum is 0.
    """
    if not stats:
        raise ValueError("batch_csv needs at least one instance's stats")
    lines = [BATCH_CSV_HEADER]
    for s in stats:
        lines.append(
            ",".join(
                [
                    s.name,
                    str(s.runs),
                    format_cost(s.best),
                    f"{s.mean_censored:.1f}",
                    str(s.inf_count),
                    "" if s.optimal_count is None else str(s.optimal_count),
                    "" if s.within3_count is None else str(s.within3_count),
                ]
            )
        )

    *av, av_opt = _column_means([
        [s.runs, s.best, s.mean_censored, s.inf_count, s.optimal_count, s.within3_count,
         s.known_optimal] for s in stats
    ])
    lines.append(",".join(["Av.", *("" if v is None else f"{v:.1f}" for v in av)]))
    pct_best = pct_mean = ""
    if av_opt:  # neither missing nor 0
        pct_best = f"{100.0 * (av[1] - av_opt) / av_opt:.1f}"
        pct_mean = f"{100.0 * (av[2] - av_opt) / av_opt:.1f}"
    lines.append(",".join(["%", "", pct_best, pct_mean, "", "", ""]))
    return "\n".join(lines) + "\n"


RUN_CSV_HEADER = "instance,seed,best_cost,feasible,iterations,iteration_of_best,rng"


def run_csv_row(name: str, result: RunResult) -> str:
    """Byte-stable per-run CSV row (wall time deliberately excluded)."""
    return ",".join(
        [
            name,
            str(result.seed),
            f"{result.best_cost:.1f}",
            "1" if result.best_feasible else "0",
            str(result.iterations_executed),
            str(result.iteration_of_best),
            RNG_KIND,
        ]
    )


@dataclass(frozen=True)
class AblationSpec:
    """Which presets and iteration budgets an ablation matrix spans.

    Every column runs with the default EvalWeights and, but for the rule
    rates of cover-only and combined-only, the default ReconstructionConfig,
    whose band weights fit any grade count.  Each preset and each budget
    names one column, so none may be listed twice.
    """

    presets: tuple[str, ...] = PRESET_NAMES
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    preset_iterations: int = 50_000
    runs: int = 20
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if min(self.budgets, default=1) < 1 or self.preset_iterations < 1:
            raise ValueError("iteration budgets must be >= 1")
        if not self.budgets and not self.presets:
            raise ValueError("budgets and presets are both empty: the matrix has no column")
        for name, values in (("presets", self.presets), ("budgets", self.budgets)):
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:
                raise ValueError(f"{name}: {repeated[0]} is listed twice")


def ablation_csv(named_instances: list[tuple[str, Instance]], spec: AblationSpec) -> str:
    """Censored-mean matrix: budget sweep columns, then preset columns.

    Each cell is its batch's compute_batch_stats mean_censored, and the Av.
    row holds the column means.  Columns with equal RunSpecs share one batch
    per instance: at the defaults the full preset column repeats
    iters_50000, so it is not run again.  Each batch runs on run_batch's
    default worker_count() processes.
    """
    if not named_instances:
        raise ValueError("ablation_csv needs at least one instance")
    columns = [(f"iters_{budget}", preset_spec("full", budget)) for budget in spec.budgets]
    columns += [(preset, preset_spec(preset, spec.preset_iterations)) for preset in spec.presets]

    lines = ["instance," + ",".join(name for name, _ in columns)]
    rows = []
    for name, instance in named_instances:
        means = {}
        for run_spec in dict.fromkeys(run_spec for _, run_spec in columns):
            results = run_batch(instance, run_spec, spec.runs, spec.base_seed)
            means[run_spec] = compute_batch_stats(name, None, results).mean_censored
        rows.append([means[run_spec] for _, run_spec in columns])
        lines.append(name + "," + ",".join(f"{mean:.1f}" for mean in rows[-1]))
    lines.append("Av.," + ",".join(f"{v:.1f}" for v in _column_means(rows)))
    return "\n".join(lines) + "\n"
