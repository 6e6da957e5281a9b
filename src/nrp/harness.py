"""Batch running, benchmark statistics, presets and ablation matrices.

A batch runs one instance many times under consecutive seeds and reduces
the results to the usual table row: best, censored mean (infeasible runs
count as 255), number of infeasible runs, and how many runs ended optimal
or within three cost units of the optimum.  Presets name the standard
configuration plus the single-mechanism variants used for ablations.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .eliminate import EliminationConfig
from .evaluate import EvalWeights
from .instance_io import load_instance
from .model import Instance
from .reconstruct import ReconstructionConfig
from .solver import RunResult, SolverConfig, run, run_construction_only

CENSOR_COST = 255.0  # stand-in cost for runs that never reach feasibility

PRESET_NAMES = (
    "full",
    "elim1-fixed05",
    "elim1-only",
    "elim2-only",
    "cover-only",
    "combined-only",
    "construct-only",
)

DEFAULT_BUDGETS = (10_000, 20_000, 30_000, 50_000, 100_000)


@dataclass(frozen=True)
class RunSpec:
    """A solver configuration plus the choice of loop vs single-pass baseline."""

    config: SolverConfig
    construction_only: bool = False


def preset_spec(name: str, max_iterations: int = 50_000, seed: int = 0) -> RunSpec:
    """Named configuration presets; see PRESET_NAMES."""
    config = SolverConfig(max_iterations=max_iterations, seed=seed)
    if name == "full":
        return RunSpec(config)
    if name == "elim1-fixed05":
        return RunSpec(replace(config, elim=EliminationConfig(fixed_threshold=0.5)))
    if name == "elim1-only":
        return RunSpec(replace(config, elim=EliminationConfig(enable_random_elim=False)))
    if name == "elim2-only":
        return RunSpec(replace(config, elim=EliminationConfig(enable_fitness_elim=False)))
    if name == "cover-only":
        return RunSpec(replace(config, recon=ReconstructionConfig(p1=1.0, p2=0.0, p3=0.0)))
    if name == "combined-only":
        return RunSpec(replace(config, recon=ReconstructionConfig(p1=0.0, p2=1.0, p3=0.0)))
    if name == "construct-only":
        return RunSpec(config, construction_only=True)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def with_w_grade(spec: RunSpec, w_grade: tuple[float, ...]) -> RunSpec:
    """The spec with the combined rule's grade-band weights replaced."""
    weights = replace(spec.config.eval_weights, w_grade=w_grade)
    return replace(spec, config=replace(spec.config, eval_weights=weights))


def execute(instance: Instance, spec: RunSpec) -> RunResult:
    if spec.construction_only:
        return run_construction_only(instance, spec.config)
    return run(instance, spec.config)


def worker_count() -> int:
    """Batch parallelism cap from NRP_THREADS, at most the CPU count."""
    try:
        wanted = max(1, int(os.environ.get("NRP_THREADS", "1")))
    except ValueError:
        return 1
    return min(wanted, os.cpu_count() or 1)


def _execute_job(job: tuple[Instance, RunSpec]) -> RunResult:
    return execute(job[0], job[1])


def execute_many(
    jobs: list[tuple[Instance, RunSpec]], threads: int | None = None
) -> list[RunResult]:
    """Run independent jobs, optionally across processes; order is preserved."""
    threads = min(worker_count() if threads is None else threads, len(jobs))
    if threads <= 1:
        return [execute(instance, spec) for instance, spec in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_execute_job, jobs, chunksize=max(1, len(jobs) // (4 * threads))))


def run_batch(
    instance: Instance, spec: RunSpec, runs: int, base_seed: int, threads: int | None = None
) -> list[RunResult]:
    """runs independent executions with seeds base_seed, base_seed+1, ..."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    jobs = [
        (instance, replace(spec, config=replace(spec.config, seed=base_seed + k)))
        for k in range(runs)
    ]
    return execute_many(jobs, threads)


def censored_cost(result: RunResult, censor: float = CENSOR_COST) -> float:
    """Run cost for statistics: actual cost if feasible, else the censor value."""
    return result.best_cost if result.best_feasible else censor


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
    name: str,
    known_optimal: int | None,
    results: list[RunResult],
    censor: float = CENSOR_COST,
) -> BatchStats:
    values = [censored_cost(r, censor) for r in results]
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
            result.rng_kind,
        ]
    )


@dataclass(frozen=True)
class AblationSpec:
    """Which presets and iteration budgets an ablation matrix spans.

    w_grade replaces every column's combined-rule band weights; an instance
    with g bands needs at least g of them.
    """

    presets: tuple[str, ...] = PRESET_NAMES
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    preset_iterations: int = 50_000
    runs: int = 20
    base_seed: int = 0
    w_grade: tuple[float, ...] = EvalWeights().w_grade

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if min(self.budgets, default=1) < 1 or self.preset_iterations < 1:
            raise ValueError("iteration budgets must be >= 1")


def ablation_csv(
    named_instances: list[tuple[str, Instance]],
    spec: AblationSpec,
    threads: int | None = None,
) -> str:
    """Censored-mean matrix: budget sweep columns, then preset columns."""
    columns: list[tuple[str, RunSpec]] = []
    for budget in spec.budgets:
        columns.append((f"iters_{budget}", preset_spec("full", budget)))
    for preset in spec.presets:
        columns.append((preset, preset_spec(preset, spec.preset_iterations)))
    columns = [(name, with_w_grade(run_spec, spec.w_grade)) for name, run_spec in columns]

    lines = ["instance," + ",".join(name for name, _ in columns)]
    totals = [0.0] * len(columns)
    for name, instance in named_instances:
        cells = []
        for idx, (_, run_spec) in enumerate(columns):
            results = run_batch(instance, run_spec, spec.runs, spec.base_seed, threads)
            mean = sum(censored_cost(r) for r in results) / len(results)
            totals[idx] += mean
            cells.append(f"{mean:.1f}")
        lines.append(name + "," + ",".join(cells))
    av = [t / len(named_instances) for t in totals]
    lines.append("Av.," + ",".join(f"{v:.1f}" for v in av))
    return "\n".join(lines) + "\n"


def load_named_instances(paths: list[str]) -> tuple[list[tuple[str, Instance]], list[str]]:
    """Parse instance files, collecting per-file errors instead of aborting."""
    loaded: list[tuple[str, Instance]] = []
    errors: list[str] = []
    for path in paths:
        try:
            loaded.append((os.path.splitext(os.path.basename(path))[0], load_instance(path)))
        except (OSError, ValueError) as exc:
            errors.append(f"{path}: {exc}")
    return loaded, errors
