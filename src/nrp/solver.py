"""The main search loop: evaluate, eliminate, reconstruct, repeat.

Starting from a uniformly random roster, each iteration scores every
nurse's assignment, releases the unfit ones (plus a few fit ones at
random), and greedily repairs the roster.  The best penalized solution ever
seen is retained, and the result's trajectory records each iteration that
improved it.  A single seeded rng stream drives initialization, both
eliminations and reconstruction in a documented order, so a run is fully
reproducible from (instance, config).

One CoverageState follows the roster through the run: the released nurses
are removed from it and reconstruct writes the new picks back into it, so
after each repair it holds the current roster's coverage, each nurse's cost
and their sum.  Fitness
and penalized_cost read the costs from it instead of summing the roster.

Fitness memo.  A run keeps the fitness lists it has computed, keyed by the
roster's assignment tuple, and calls component_fitness_all only for a roster
it has not met.  Fitness is a pure function of the instance, the roster and
the weights, and one run fixes the instance and the weights, so the memo
changes no float, no rng draw and no pick; like the PickMemo it must not
outlive its run.  On desk-size instances the search keeps coming back to the
same few rosters: about 93% of fitness calls score a roster the run has
already scored.  On the paper's ward shape about 5% do.  The memo is emptied
once it holds FITNESS_MEMO_ROSTERS rosters, which every desk-size run fits
and which keeps it under about 0.4 MB at n = 30.  Fitness is only computed
when fitness elimination is on.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .eliminate import EliminationConfig, eliminate_at_random, eliminate_by_fitness
from .evaluate import EvalWeights, component_fitness_all, penalized_cost
from .model import CoverageState, Instance, Roster, compute_coverage
from .reconstruct import PickMemo, ReconstructionConfig, reconstruct

RNG_KIND = "mt19937"  # python random.Random; recorded in results for replay
FITNESS_MEMO_ROSTERS = 256  # per run; see the module docstring


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs besides the instance itself."""

    max_iterations: int = 50_000
    seed: int = 0
    eval_weights: EvalWeights = field(default_factory=EvalWeights)
    elim: EliminationConfig = field(default_factory=EliminationConfig)
    recon: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    stop_at_known_optimal: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class RunResult:
    """Outcome of one seeded run.

    trajectory holds (0, starting cost), then one (t, best cost) entry per
    iteration t that lowered the best cost, so its last entry is
    (iteration_of_best, best_cost).
    """

    best_cost: float
    best_roster: Roster
    best_feasible: bool
    iterations_executed: int
    iteration_of_best: int
    wall_time: float
    seed: int
    rng_kind: str = RNG_KIND
    trajectory: list[tuple[int, float]] = field(default_factory=list)


def initial_roster(instance: Instance, rng: random.Random) -> Roster:
    """Uniform random pattern per nurse, drawn in ascending id order."""
    return Roster(
        [nurse.feasible[rng.randrange(len(nurse.feasible))] for nurse in instance.nurses]
    )


def run(instance: Instance, config: SolverConfig) -> RunResult:
    """Full iterative search; deterministic given (instance, config).

    Stops after max_iterations passes, or as soon as a feasible solution
    with preference cost <= instance.known_optimal is found (when enabled
    and the optimum is known).
    """
    weights = config.eval_weights
    rng = random.Random(config.seed)
    started = time.perf_counter()

    roster = initial_roster(instance, rng)
    coverage = compute_coverage(instance, roster)
    cost = penalized_cost(instance, roster, weights, coverage=coverage)

    best_cost = cost
    best_roster = roster.copy()
    best_feasible = not coverage.short_mask()
    iteration_of_best = 0
    trajectory = [(0, best_cost)]
    memo = PickMemo(instance)  # lives exactly as long as this run
    # fitness by roster, also for this run only; the stored lists are shared,
    # so no caller may mutate them (eliminate_by_fitness only reads them)
    fitness_memo: dict[tuple[int, ...], list[float]] = {}

    def optimum_reached() -> bool:
        return (
            config.stop_at_known_optimal
            and instance.known_optimal is not None
            and best_feasible
            and best_cost <= instance.known_optimal
        )

    fitness_elim = config.elim.enable_fitness_elim
    random_elim = config.elim.enable_random_elim
    remove = coverage.remove
    iterations = 0
    if not optimum_reached():
        for t in range(1, config.max_iterations + 1):
            iterations = t
            if fitness_elim:
                key = tuple(roster.assignment)
                fitness = fitness_memo.get(key)
                if fitness is None:
                    if len(fitness_memo) >= FITNESS_MEMO_ROSTERS:
                        fitness_memo.clear()
                    fitness = fitness_memo[key] = component_fitness_all(
                        instance, roster, weights, coverage=coverage
                    )
                partial = eliminate_by_fitness(roster, fitness, config.elim, rng)
            else:
                partial = roster  # nothing below mutates its input roster
            if random_elim:
                partial = eliminate_at_random(partial, config.elim, rng)
            # roster is complete here, so every unassigned nurse was just released
            for i, j in enumerate(partial.assignment):
                if j is None:
                    remove(i, roster.assignment[i])
            roster = reconstruct(
                instance, partial, config.recon, weights, rng, coverage=coverage, memo=memo
            )
            cost = penalized_cost(instance, roster, weights, coverage=coverage)

            if cost < best_cost:
                best_cost = cost
                best_roster = roster.copy()
                best_feasible = not coverage.short_mask()
                iteration_of_best = t
                trajectory.append((t, best_cost))
                if optimum_reached():
                    break

    return RunResult(
        best_cost=best_cost,
        best_roster=best_roster,
        best_feasible=best_feasible,
        iterations_executed=iterations,
        iteration_of_best=iteration_of_best,
        wall_time=time.perf_counter() - started,
        seed=config.seed,
        trajectory=trajectory,
    )


def run_construction_only(instance: Instance, config: SolverConfig) -> RunResult:
    """Baseline: one greedy reconstruction pass from an empty roster, no loop."""
    weights = config.eval_weights
    rng = random.Random(config.seed)
    started = time.perf_counter()

    coverage = CoverageState(instance)  # reconstruct brings it up to the roster
    roster = reconstruct(
        instance, Roster.empty(instance.n), config.recon, weights, rng, coverage
    )
    cost = penalized_cost(instance, roster, weights, coverage=coverage)

    return RunResult(
        best_cost=cost,
        best_roster=roster,
        best_feasible=not coverage.short_mask(),
        iterations_executed=0,
        iteration_of_best=0,
        wall_time=time.perf_counter() - started,
        seed=config.seed,
        trajectory=[(0, cost)],
    )
