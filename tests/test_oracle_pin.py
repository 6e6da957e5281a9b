"""The exact solver's search, pinned on a fixed seeded set of instances.

Each case records what exact_solve returns: status, optimal cost, nodes
explored, both cut counters and the roster.  The bounds are allowed to
change how a node is cut only if they cut the same nodes, so a bound that
drifts shows here even while the optimum stays the same.  A deliberate
change to the search must re-record these values and say why.
"""

from __future__ import annotations

import pytest

from nrp.instance_io import GeneratorParams, generate_instance
from nrp.oracle import exact_solve

NODE_BUDGET = 100_000

# (n, m, g, feasible_max, tightness, seed) ->
# (status, optimal_cost, nodes_explored, cost_cuts, coverage_cuts, assignment)
PINNED = [
    ((8, 12, 1, 6, 0.8, 8100), ("optimal", 158, 15, 9, 5,
        [1, 10, 2, 1, 5, 0, 4, 9])),
    ((8, 16, 1, 5, 0.9, 8100), ("optimal", 98, 45, 18, 25,
        [1, 7, 15, 2, 14, 9, 4, 9])),
    ((8, 12, 3, 6, 0.8, 8101), ("optimal", 230, 7668, 738, 5598,
        [1, 11, 7, 4, 6, 10, 1, 6])),
    ((8, 16, 3, 5, 0.9, 8101), ("optimal", 133, 27, 7, 16,
        [8, 4, 5, 9, 14, 15, 11, 9])),
    ((10, 12, 2, 6, 0.8, 8102), ("optimal", 96, 80, 19, 44,
        [7, 11, 9, 2, 7, 0, 3, 2, 8, 3])),
    ((10, 16, 2, 5, 0.9, 8102), ("optimal", 249, 391, 62, 256,
        [3, 15, 4, 7, 2, 8, 2, 7, 5, 9])),
    ((11, 12, 3, 6, 0.8, 8103), ("optimal", 148, 2395, 171, 1787,
        [6, 9, 9, 4, 1, 4, 7, 6, 10, 5, 4])),
    ((11, 16, 3, 5, 0.9, 8103), ("optimal", 261, 1059, 78, 789,
        [4, 6, 12, 7, 9, 2, 6, 13, 14, 12, 4])),
    ((12, 12, 1, 6, 0.8, 8104), ("optimal", 93, 1793, 1152, 604,
        [4, 5, 2, 4, 2, 2, 7, 11, 11, 0, 6, 6])),
    ((12, 16, 1, 5, 0.9, 8104), ("optimal", 218, 2040, 797, 955,
        [11, 3, 14, 5, 7, 0, 1, 9, 9, 7, 1, 10])),
    ((12, 12, 2, 6, 0.8, 8105), ("optimal", 71, 842, 237, 78,
        [11, 6, 4, 5, 2, 7, 3, 6, 9, 8, 6, 8])),
    ((12, 16, 2, 5, 0.9, 8105), ("optimal", 160, 370, 133, 199,
        [7, 13, 8, 0, 12, 6, 1, 8, 4, 8, 4, 10])),
    ((13, 12, 3, 6, 0.8, 8106), ("optimal", 86, 1447, 937, 483,
        [11, 11, 3, 7, 1, 9, 6, 6, 10, 2, 10, 3, 8])),
    ((13, 16, 3, 5, 0.9, 8106), ("optimal", 345, 745, 37, 551,
        [5, 15, 6, 10, 7, 10, 14, 10, 8, 4, 13, 7, 10])),
    ((14, 12, 2, 6, 0.8, 8107), ("optimal", 105, 32, 18, 12,
        [6, 7, 6, 2, 4, 3, 5, 0, 3, 2, 5, 5, 4, 0])),
    ((14, 16, 2, 5, 0.9, 8107), ("optimal", 316, 35876, 1241, 25686,
        [12, 14, 12, 10, 4, 3, 2, 14, 3, 14, 13, 4, 3, 2])),
    ((14, 12, 3, 6, 0.8, 8108), ("optimal", 188, 660, 79, 441,
        [8, 4, 11, 3, 10, 1, 7, 3, 6, 2, 5, 5, 2, 4])),
    ((14, 16, 3, 5, 0.9, 8108), ("optimal", 429, 3068, 272, 2070,
        [6, 5, 7, 1, 9, 2, 8, 9, 5, 6, 14, 14, 10, 6])),
    ((15, 12, 1, 6, 0.8, 8109), ("optimal", 30, 41, 34, 6,
        [4, 11, 6, 1, 0, 8, 9, 3, 10, 5, 1, 4, 8, 4, 4])),
    ((15, 16, 1, 5, 0.9, 8109), ("timeout", None, 100000, 0, 64991,
        None)),
    ((16, 12, 2, 6, 0.8, 8110), ("optimal", 168, 33398, 11630, 18893,
        [8, 4, 11, 6, 10, 10, 11, 9, 4, 6, 5, 3, 6, 5, 1, 9])),
    ((16, 16, 2, 5, 0.9, 8110), ("optimal", 261, 3413, 112, 2520,
        [11, 11, 3, 10, 6, 7, 15, 13, 12, 12, 15, 10, 7, 15, 7, 10])),
    ((16, 12, 3, 6, 0.8, 8111), ("optimal", 184, 72836, 1869, 56743,
        [10, 8, 7, 10, 7, 9, 9, 7, 1, 9, 11, 0, 10, 3, 7, 7])),
    ((16, 16, 3, 5, 0.9, 8111), ("optimal", 397, 52375, 8147, 36097,
        [0, 6, 15, 2, 7, 9, 3, 9, 3, 10, 13, 0, 4, 8, 6, 15])),
]


@pytest.mark.parametrize("case, expected", PINNED, ids=[
    f"n{n}-m{m}-g{g}-seed{seed}" for (n, m, g, _, _, seed), _ in PINNED
])
def test_search_matches_the_recorded_one(case, expected):
    n, m, g, feasible_max, tightness, seed = case
    instance = generate_instance(GeneratorParams(
        n=n, m=m, g=g, feasible_min=3, feasible_max=feasible_max,
        tightness=tightness, seed=seed,
    ))
    result = exact_solve(instance, node_budget=NODE_BUDGET)
    roster = None if result.optimal_roster is None else result.optimal_roster.assignment
    assert (
        result.status, result.optimal_cost, result.nodes_explored,
        result.cost_cuts, result.coverage_cuts, roster,
    ) == expected
