"""A replay of the solver's loop built from the definitions alone.

replay(instance, config) redoes nrp.solver.run, and replay(instance, config,
construction_only=True) its one-pass baseline run_construction_only, from
the paper's steps as written.  One random.Random(config.seed) is drawn from
in the documented order:

- the start roster, one randrange per nurse in id order;
- per iteration, the fitness threshold (one draw, none when fixed), then
  one release draw per nurse still assigned, in id order;
- per freed nurse in id order, the rule draw, plus one randrange for the
  random rule.

Fitness is bruteforce's fitness_by_definition, which recounts each
nurse's contribution by contribution_by_removal from one coverage_matrix
of the roster, the cover and combined picks take the first maximum over
the nurse's feasible list of cover_value_by_definition and
combined_score_by_definition, and every iteration's penalized cost is
penalized_cost_by_definition: no memo, scan list, bound or skip.  A
roster replaces the best only when strictly cheaper, and a feasible best at
or below the known optimum stops the loop.  Only the data classes and the
configs come from nrp; the scores come from bruteforce.
"""

from __future__ import annotations

import random

from nrp.model import Instance, Roster
from nrp.solver import SolverConfig

from bruteforce import (
    combined_score_by_definition,
    cover_value_by_definition,
    feasible_by_definition,
    fitness_by_definition,
    penalized_cost_by_definition,
    shortfall_matrix,
)


def repair_by_definition(instance: Instance, roster: Roster, recon, rng) -> Roster:
    """Give each freed nurse, in id order, the pick of the rule drawn for her.

    Each pick scores her feasible patterns against the roster as repaired so
    far, from one shortfall_matrix of it.
    """
    result = roster.copy()
    for i, held in enumerate(roster.assignment):
        if held is not None:
            continue
        feasible = instance.nurses[i].feasible
        u = rng.random()
        if u < recon.p1:
            short = shortfall_matrix(instance, result)
            pick = max(feasible, key=lambda j: cover_value_by_definition(
                instance, result, i, j, short=short))
        elif u < recon.p1 + recon.p2:
            short = shortfall_matrix(instance, result)
            pick = max(feasible, key=lambda j: combined_score_by_definition(
                instance, result, recon.w_p, recon.w_grade, i, j, recon.e_mode, short=short))
        else:
            pick = feasible[rng.randrange(len(feasible))]
        result.assignment[i] = pick  # max keeps the first of equal scores
    return result


def replay(instance: Instance, config: SolverConfig, construction_only: bool = False) -> tuple:
    """(best_cost, best assignment, best_feasible, iterations_executed,
    iteration_of_best, trajectory), as run or run_construction_only reports them."""
    weights, elim, recon = config.eval_weights, config.elim, config.recon
    rng = random.Random(config.seed)
    if construction_only:
        roster = repair_by_definition(instance, Roster.empty(instance.n), recon, rng)
        cost = penalized_cost_by_definition(instance, roster, weights)
        return cost, roster.assignment, feasible_by_definition(instance, roster), 0, 0, [(0, cost)]

    def optimum_reached() -> bool:
        return (config.stop_at_known_optimal and instance.known_optimal is not None
                and best_feasible and best_cost <= instance.known_optimal)

    roster = Roster([nurse.feasible[rng.randrange(len(nurse.feasible))]
                     for nurse in instance.nurses])
    best_cost = penalized_cost_by_definition(instance, roster, weights)
    best, best_feasible = roster, feasible_by_definition(instance, roster)
    iteration_of_best, trajectory, iterations = 0, [(0, best_cost)], 0
    for t in range(1, config.max_iterations + 1):
        if optimum_reached():
            break
        iterations = t
        partial = roster.copy()
        if elim.enable_fitness_elim:
            fitness = fitness_by_definition(instance, roster, weights)
            threshold = rng.random() if elim.fixed_threshold is None else elim.fixed_threshold
            for i, fit in enumerate(fitness):
                if fit <= threshold:
                    partial.assignment[i] = None
        if elim.enable_random_elim:
            for i, j in enumerate(partial.assignment):
                if j is not None and rng.random() < elim.r_m:
                    partial.assignment[i] = None
        roster = repair_by_definition(instance, partial, recon, rng)
        cost = penalized_cost_by_definition(instance, roster, weights)
        if cost < best_cost:
            best_cost, best, best_feasible = cost, roster, feasible_by_definition(instance, roster)
            iteration_of_best = t
            trajectory.append((t, best_cost))
    return best_cost, best.assignment, best_feasible, iterations, iteration_of_best, trajectory
