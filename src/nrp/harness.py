"""Batch running, benchmark statistics, presets and ablation matrices.

A batch runs one instance many times under consecutive seeds and reduces
the results to the usual table row: best, censored mean (infeasible runs
count as 255), number of infeasible runs, and how many runs ended optimal
or within three cost units of the optimum.  The runs of a batch go to up to
worker_count() processes, read from the NRP_THREADS environment variable
(default 1, capped at the CPU count), unless the caller passes threads.
The process pool's modules load only when a batch runs on more than one
worker, so a sequential batch never imports multiprocessing.
Presets name the standard configuration plus the single-mechanism variants
used for ablations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

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

    Raises ValueError when the variable is set to anything but a positive
    integer.
    """
    text = os.environ.get("NRP_THREADS", "1")
    try:
        wanted = int(text)
    except ValueError:
        wanted = 0
    if wanted < 1:
        raise ValueError(f"NRP_THREADS must be a positive integer, got {text!r}")
    return min(wanted, os.cpu_count() or 1)


def run_batch(
    instance: Instance, spec: RunSpec, runs: int, base_seed: int, threads: int | None = None
) -> list[RunResult]:
    """runs independent executions with seeds base_seed, base_seed+1, ...

    threads (default worker_count()) caps the worker processes; the results
    come back in seed order either way.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    specs = [replace(spec, config=replace(spec.config, seed=base_seed + k)) for k in range(runs)]
    threads = min(worker_count() if threads is None else threads, runs)
    if threads <= 1:
        return [execute(instance, run_spec) for run_spec in specs]
    # imported here so that a sequential batch never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, runs // (4 * threads))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(execute, [instance] * runs, specs, chunksize=chunksize))


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
    inf_count = sum(1 for r in results if not r.best_feasible)
    if known_optimal is None:
        optimal_count = within3_count = None
    else:
        optimal_count = sum(
            1 for r in results if r.best_feasible and r.best_cost <= known_optimal
        )
        within3_count = sum(
            1 for r in results if r.best_feasible and r.best_cost <= known_optimal + 3
        )
    return BatchStats(
        name=name,
        runs=len(results),
        best=min(values),
        mean_censored=sum(values) / len(values),
        inf_count=inf_count,
        optimal_count=optimal_count,
        within3_count=within3_count,
        known_optimal=known_optimal,
    )


def format_cost(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.1f}"


BATCH_CSV_HEADER = "instance,runs,best,mean_censored,inf,optimal_count,within3"


def batch_csv(stats: list[BatchStats]) -> str:
    """CSV with one row per instance plus the Av. and % summary rows."""
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

    count = len(stats)
    av_best = sum(s.best for s in stats) / count
    av_mean = sum(s.mean_censored for s in stats) / count
    av_inf = sum(s.inf_count for s in stats) / count
    have_optima = all(s.known_optimal is not None for s in stats)
    av_row = [
        "Av.",
        f"{sum(s.runs for s in stats) / count:.1f}",
        f"{av_best:.1f}",
        f"{av_mean:.1f}",
        f"{av_inf:.1f}",
        f"{sum(s.optimal_count for s in stats) / count:.1f}" if have_optima else "",
        f"{sum(s.within3_count for s in stats) / count:.1f}" if have_optima else "",
    ]
    lines.append(",".join(av_row))

    pct_best = pct_mean = ""
    if have_optima:
        av_opt = sum(s.known_optimal for s in stats) / count
        if av_opt > 0:
            pct_best = f"{100.0 * (av_best - av_opt) / av_opt:.1f}"
            pct_mean = f"{100.0 * (av_mean - av_opt) / av_opt:.1f}"
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

    Every column runs with the default EvalWeights, whose band weights fit
    any grade count.  Each preset and each budget names one column, so none
    may be listed twice.
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

    Columns with equal RunSpecs share one batch per instance: at the
    defaults the full preset column repeats iters_50000, so it is not run
    again.  Each batch runs on run_batch's default worker_count() processes.
    """
    if not named_instances:
        raise ValueError("ablation_csv needs at least one instance")
    columns = [(f"iters_{budget}", preset_spec("full", budget)) for budget in spec.budgets]
    columns += [(preset, preset_spec(preset, spec.preset_iterations)) for preset in spec.presets]

    lines = ["instance," + ",".join(name for name, _ in columns)]
    totals = [0.0] * len(columns)
    for name, instance in named_instances:
        means = {}
        for run_spec in dict.fromkeys(run_spec for _, run_spec in columns):
            results = run_batch(instance, run_spec, spec.runs, spec.base_seed)
            means[run_spec] = sum(censored_cost(r) for r in results) / len(results)
        row = [means[run_spec] for _, run_spec in columns]
        totals = [total + mean for total, mean in zip(totals, row)]
        lines.append(name + "," + ",".join(f"{mean:.1f}" for mean in row))
    av = [t / len(named_instances) for t in totals]
    lines.append("Av.," + ",".join(f"{v:.1f}" for v in av))
    return "\n".join(lines) + "\n"
