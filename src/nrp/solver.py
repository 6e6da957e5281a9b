"""The main search loop: evaluate, eliminate, reconstruct, repeat.

Starting from a uniformly random roster, each iteration scores every
nurse's assignment, releases the unfit ones (plus a few fit ones at
random), and greedily repairs the roster.  The best penalized solution ever
seen is retained, and the result's trajectory records each iteration that
improved it.  A single seeded rng stream drives initialization, both
eliminations and reconstruction in a documented order, so a run is fully
reproducible from (instance, config).

One CoverageState follows the roster through the run.  The loop adds each
released nurse's row of Instance.nurse_cells to a local copy of the state's
residual rest, subtracts her cost from a local cost, and writes both back
once, as reconstruct does with its picks, so after each repair the state
holds the current roster's residual demand, each nurse's cost and their
sum.  Fitness and penalized_cost read the costs from it instead of summing
the roster.

An iteration whose eliminations release no nurse goes straight on to the
next: with no free nurse reconstruct draws nothing and returns the same
roster, whose penalized cost was already compared with the best when it was
made (or set the best, as the start roster).  So the repair, the release
loop and the cost test are skipped, and no draw, pick or float changes.
With only the random elimination on, an iteration releases no one with
probability (1 - r_m)**n, which is large on small instances.

The penalized cost is computed only when it can beat the best.  It is the
kept preference cost plus w_demand times the total shortfall, and every
short cell (a guard bit of rest & guard_bits) is short by at least 1, so the
shortfall is at least the count of short cells.  EvalWeights rejects
w_demand <= 0, ints convert to float exactly, and float rounding is
monotone, so when the kept cost plus w_demand per short cell is not below
the best, neither is the penalized cost, and the loop goes on without
summing the shortfall.  With no short cell the test is the kept cost alone.

Fitness memo.  A run keeps the fitness lists it has computed, keyed by the
roster's assignment tuple, and calls component_fitness_all only for a roster
it has not met.  Fitness is a pure function of the instance, the roster and
the weights, and one run fixes the instance and the weights, so the memo
changes no float, no rng draw and no pick; like the PickMemo it must not
outlive its run.  On desk-size instances the search keeps coming back to the
same few rosters, so most fitness calls score a roster the run has already
scored; on the paper's ward shape few do.  The memo is emptied once it
holds FITNESS_MEMO_ROSTERS rosters, which every desk-size run fits.
Fitness is only computed when fitness elimination is on.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .eliminate import EliminationConfig, eliminate_at_random, eliminate_by_fitness
from .evaluate import EvalWeights, component_fitness_all, penalized_cost
from .model import CoverageState, Instance, Roster, compute_coverage
from .reconstruct import PickMemo, ReconstructionConfig, reconstruct

RNG_KIND = "mt19937"  # python random.Random; the run CSV's rng column, for replay
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
    iteration t that lowered the best cost.  It is never empty, and its last
    entry is the best: best_cost and iteration_of_best are read from it.
    """

    best_roster: Roster
    best_feasible: bool
    iterations_executed: int
    wall_time: float
    seed: int
    trajectory: list[tuple[int, float]]

    @property
    def best_cost(self) -> float:
        return self.trajectory[-1][1]

    @property
    def iteration_of_best(self) -> int:
        return self.trajectory[-1][0]


def initial_roster(instance: Instance, rng: random.Random) -> Roster:
    """Uniform random pattern per nurse, drawn in ascending id order."""
    return Roster([rng.choice(nurse.feasible) for nurse in instance.nurses])


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
    cost = penalized_cost(roster, weights, coverage)

    best_cost = cost
    best_roster = roster.copy()
    best_feasible = not coverage.short_mask()
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

    elim, recon = config.elim, config.recon
    fitness_elim, random_elim = elim.enable_fitness_elim, elim.enable_random_elim
    nurse_cells, costs = instance.nurse_cells, coverage.costs
    guard_bits, w_demand = instance.guard_bits, weights.w_demand
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
                        instance, roster, weights, coverage
                    )
                partial = eliminate_by_fitness(roster, fitness, elim, rng)
            else:
                partial = roster  # nothing below mutates its input roster
            if random_elim:
                partial = eliminate_at_random(partial, elim, rng)
            if None not in partial.assignment:
                continue  # no one released: the roster and the best stand
            # roster is complete here, so every unassigned nurse was just
            # released; the releases go on local copies, written back once
            rest, kept, held = coverage.rest, coverage.cost, roster.assignment
            for i, j in enumerate(partial.assignment):
                if j is None:
                    rest += nurse_cells[i][held[i]]
                    kept -= costs[i]
            coverage.rest, coverage.cost = rest, kept
            roster = reconstruct(instance, partial, recon, rng, coverage, memo)
            # each short cell is short by at least 1
            if coverage.cost + w_demand * (coverage.rest & guard_bits).bit_count() >= best_cost:
                continue  # the full shortfall term cannot bring it lower
            cost = penalized_cost(roster, weights, coverage)

            if cost < best_cost:
                best_cost = cost
                best_roster = roster.copy()
                best_feasible = not coverage.short_mask()
                trajectory.append((t, best_cost))
                if optimum_reached():
                    break

    return RunResult(
        best_roster=best_roster,
        best_feasible=best_feasible,
        iterations_executed=iterations,
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
    roster = reconstruct(instance, Roster.empty(instance.n), config.recon, rng, coverage,
                         PickMemo(instance))
    cost = penalized_cost(roster, weights, coverage)

    return RunResult(
        best_roster=roster,
        best_feasible=not coverage.short_mask(),
        iterations_executed=0,
        wall_time=time.perf_counter() - started,
        seed=config.seed,
        trajectory=[(0, cost)],
    )
