"""Desk-scale benchmark suite construction shared by the heavier tests.

Instances are generated small enough for the exact solver, with the proven
optimum embedded.  Candidates whose optimum is an isolated needle are
rejected: real wards allow overstaffing and usually admit several optimal
or near-optimal rosters, so a desk suite without that redundancy would
measure luck rather than search quality.  The filter is a structural count
over the instance itself and does not consult the solver under test.
"""

from __future__ import annotations

from dataclasses import replace

from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import CoverageState, Instance
from nrp.oracle import OPTIMAL, exact_solve


def count_feasible_within(instance: Instance, cost_bound: int) -> int:
    """Number of feasible rosters costing at most cost_bound (pruned DFS)."""
    cov = CoverageState(instance)
    n = instance.n
    count = 0

    def rec(depth: int, cost: int) -> None:
        nonlocal count
        if depth == n:
            if cov.total_shortfall() == 0:
                count += 1
            return
        nurse = instance.nurses[depth]
        for j in nurse.feasible:
            next_cost = cost + nurse.pref_cost[j]
            if next_cost > cost_bound:
                continue
            cov.add(depth, j)
            rec(depth + 1, next_cost)
            cov.remove(depth, j)

    rec(0, 0)
    return count


def build_desk_suite(
    count: int,
    seed0: int = 11_000,
    min_optima: int = 2,
    min_within3: int = 4,
) -> list[Instance]:
    """count feasible instances (n <= 6, |A(i)| <= 8) with optima embedded."""
    suite: list[Instance] = []
    seed = seed0
    rejected = 0
    while len(suite) < count:
        k = len(suite) + rejected
        params = GeneratorParams(
            n=4 + k % 3,
            m=10 + 2 * (k % 2),
            g=2 + k % 2,
            feasible_min=2,
            feasible_max=8,
            tightness=(0.7, 0.75)[k % 2],
            seed=seed,
        )
        seed += 1
        instance = generate_instance(params)
        result = exact_solve(instance)
        if result.status != OPTIMAL:
            rejected += 1
            continue
        optimum = result.optimal_cost
        if (
            count_feasible_within(instance, optimum) >= min_optima
            and count_feasible_within(instance, optimum + 3) >= min_within3
        ):
            suite.append(replace(instance, known_optimal=optimum))
        else:
            rejected += 1
    return suite
