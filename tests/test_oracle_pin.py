"""The exact solver's search, pinned on fixed seeded sets of instances.

Each case records what exact_solve returns: status, optimal cost, nodes
explored, both cut counters and the roster.  The bounds are allowed to
change how a node is cut only if they cut the same nodes, so a bound that
drifts shows here even while the optimum stays the same.  A deliberate
change to the search must re-record these values and say why.

The reach set holds n = 16-30 instances.  Five of them a single search
over all nurses, not split into components, does not prove in 3M nodes.
Their optima agree with a MILP solve.
"""

from __future__ import annotations

import pytest

from nrp.instance_io import GeneratorParams, generate_instance
from nrp.oracle import exact_solve

NODE_BUDGET = 100_000

# (n, m, g, feasible_max, tightness, seed) ->
# (status, optimal_cost, nodes_explored, cost_cuts, coverage_cuts, assignment)
PINNED = [
    ((8, 12, 1, 6, 0.8, 8100), ("optimal", 158, 10, 7, 2,
        [1, 10, 2, 1, 5, 0, 4, 9])),
    ((8, 16, 1, 5, 0.9, 8100), ("optimal", 98, 20, 9, 9,
        [1, 7, 15, 2, 14, 9, 4, 9])),
    ((8, 12, 3, 6, 0.8, 8101), ("optimal", 230, 294, 98, 48,
        [1, 11, 7, 4, 6, 10, 1, 6])),
    ((8, 16, 3, 5, 0.9, 8101), ("optimal", 133, 23, 9, 7,
        [8, 4, 5, 9, 14, 15, 11, 9])),
    ((10, 12, 2, 6, 0.8, 8102), ("optimal", 96, 44, 17, 19,
        [7, 11, 9, 2, 7, 0, 3, 2, 8, 3])),
    ((10, 16, 2, 5, 0.9, 8102), ("optimal", 249, 62, 18, 33,
        [3, 15, 4, 7, 2, 8, 2, 7, 5, 9])),
    ((11, 12, 3, 6, 0.8, 8103), ("optimal", 148, 120, 36, 54,
        [6, 9, 9, 4, 1, 4, 7, 6, 10, 5, 4])),
    ((11, 16, 3, 5, 0.9, 8103), ("optimal", 261, 63, 4, 42,
        [4, 6, 12, 7, 9, 2, 6, 13, 14, 12, 4])),
    ((12, 12, 1, 6, 0.8, 8104), ("optimal", 93, 44, 28, 13,
        [4, 5, 2, 4, 2, 2, 7, 11, 11, 0, 6, 6])),
    ((12, 16, 1, 5, 0.9, 8104), ("optimal", 218, 199, 102, 53,
        [11, 3, 14, 5, 7, 0, 1, 9, 9, 7, 1, 10])),
    ((12, 12, 2, 6, 0.8, 8105), ("optimal", 71, 452, 50, 7,
        [11, 6, 4, 5, 2, 7, 3, 6, 9, 8, 6, 8])),
    ((12, 16, 2, 5, 0.9, 8105), ("optimal", 160, 71, 33, 24,
        [7, 13, 8, 0, 12, 6, 1, 8, 4, 8, 4, 10])),
    ((13, 12, 3, 6, 0.8, 8106), ("optimal", 86, 135, 83, 39,
        [11, 11, 3, 7, 1, 9, 6, 6, 10, 2, 10, 3, 8])),
    ((13, 16, 3, 5, 0.9, 8106), ("optimal", 345, 386, 74, 260,
        [5, 15, 6, 10, 7, 10, 14, 10, 8, 4, 13, 7, 10])),
    ((14, 12, 2, 6, 0.8, 8107), ("optimal", 105, 32, 17, 3,
        [6, 7, 6, 2, 4, 3, 5, 0, 3, 2, 5, 5, 4, 0])),
    ((14, 16, 2, 5, 0.9, 8107), ("optimal", 316, 774, 33, 422,
        [12, 14, 12, 10, 4, 3, 2, 14, 3, 14, 13, 4, 3, 2])),
    ((14, 12, 3, 6, 0.8, 8108), ("optimal", 188, 87, 40, 35,
        [8, 4, 11, 3, 10, 1, 7, 3, 6, 2, 5, 5, 2, 4])),
    ((14, 16, 3, 5, 0.9, 8108), ("optimal", 429, 316, 22, 191,
        [6, 5, 7, 1, 9, 2, 8, 9, 5, 6, 14, 14, 10, 6])),
    ((15, 12, 1, 6, 0.8, 8109), ("optimal", 30, 27, 23, 2,
        [4, 11, 6, 1, 0, 8, 9, 3, 10, 5, 1, 4, 8, 4, 4])),
    ((15, 16, 1, 5, 0.9, 8109), ("optimal", 160, 3974, 91, 1671,
        [15, 11, 15, 6, 13, 1, 0, 0, 8, 5, 14, 5, 14, 6, 10])),
    ((16, 12, 2, 6, 0.8, 8110), ("optimal", 168, 645, 266, 236,
        [8, 4, 11, 6, 10, 10, 11, 9, 4, 6, 5, 3, 6, 5, 1, 9])),
    ((16, 16, 2, 5, 0.9, 8110), ("optimal", 261, 72, 20, 37,
        [11, 11, 3, 10, 6, 7, 15, 13, 12, 12, 15, 10, 7, 15, 7, 10])),
    ((16, 12, 3, 6, 0.8, 8111), ("optimal", 184, 4030, 220, 2950,
        [10, 8, 7, 10, 7, 9, 9, 7, 1, 9, 11, 0, 10, 3, 7, 7])),
    ((16, 16, 3, 5, 0.9, 8111), ("optimal", 397, 959, 273, 583,
        [0, 6, 15, 2, 7, 9, 3, 9, 3, 10, 13, 0, 4, 8, 6, 15])),
]

# GeneratorParams(g=3, feasible_min=4, feasible_max=8); (n, m, seed) ->
# (status, optimal_cost, nodes_explored, cost_cuts, coverage_cuts, assignment)
REACH = [
    ((16, 12, 0), ("optimal", 71, 5100, 555, 3806,
        [11, 9, 2, 2, 8, 5, 10, 1, 8, 5, 1, 11, 9, 6, 4, 0])),
    ((16, 12, 2), ("optimal", 109, 6708, 1148, 941,
        [10, 5, 2, 11, 5, 6, 7, 1, 11, 4, 7, 6, 3, 0, 8, 7])),
    ((20, 20, 0), ("optimal", 152, 689, 330, 335,
        [12, 4, 6, 12, 3, 10, 7, 16, 19, 4, 8, 1, 8, 16, 16, 0, 13, 1, 17, 3])),
    ((20, 20, 1), ("optimal", 108, 85, 44, 30,
        [6, 13, 7, 19, 10, 17, 10, 9, 6, 8, 19, 16, 0, 2, 16, 14, 15, 12, 10, 13])),
    ((20, 20, 2), ("optimal", 210, 15096, 4604, 9280,
        [9, 2, 0, 3, 16, 19, 10, 5, 4, 2, 10, 10, 14, 1, 19, 0, 8, 10, 4, 3])),
    ((20, 20, 3), ("optimal", 160, 2248, 673, 1292,
        [9, 5, 15, 12, 18, 10, 13, 17, 5, 18, 17, 3, 11, 9, 6, 9, 9, 6, 13, 3])),
    ((24, 20, 0), ("optimal", 116, 1222, 436, 662,
        [12, 5, 6, 19, 3, 12, 6, 16, 19, 7, 8, 1]
        + [8, 16, 10, 0, 13, 8, 18, 9, 0, 11, 1, 7])),
    ((24, 20, 1), ("optimal", 139, 877, 204, 194,
        [6, 13, 0, 17, 10, 12, 10, 9, 0, 0, 19, 18]
        + [0, 2, 16, 14, 15, 12, 10, 13, 18, 10, 13, 11])),
    ((24, 20, 2), ("optimal", 308, 13683, 4235, 8437,
        [1, 8, 0, 3, 16, 19, 11, 5, 4, 2, 10, 16]
        + [14, 1, 19, 0, 8, 14, 4, 3, 12, 17, 4, 13])),
    ((24, 20, 3), ("optimal", 156, 3587, 1440, 1034,
        [9, 5, 15, 17, 18, 19, 12, 17, 5, 17, 13, 9]
        + [11, 1, 6, 9, 9, 6, 18, 3, 5, 3, 17, 15])),
    ((30, 24, 0), ("optimal", 134, 2932, 1661, 1249,
        [1, 19, 0, 15, 6, 1, 23, 0, 3, 18, 13, 20, 18, 21, 0]
        + [2, 15, 6, 15, 8, 17, 7, 8, 0, 6, 4, 6, 23, 4, 12])),
    ((30, 24, 2), ("optimal", 153, 2348, 1245, 994,
        [2, 1, 21, 15, 21, 3, 11, 0, 12, 3, 19, 3, 19, 2, 0]
        + [19, 17, 14, 4, 6, 13, 19, 4, 4, 9, 20, 2, 4, 3, 3])),
    ((30, 24, 3), ("optimal", 185, 528, 286, 194,
        [15, 5, 22, 21, 21, 21, 5, 16, 20, 11, 0, 8, 1, 19, 18]
        + [4, 4, 16, 18, 3, 9, 13, 2, 10, 23, 22, 5, 23, 19, 17])),
]


def check(params: GeneratorParams, expected) -> None:
    result = exact_solve(generate_instance(params), node_budget=NODE_BUDGET)
    roster = None if result.optimal_roster is None else result.optimal_roster.assignment
    assert (
        result.status, result.optimal_cost, result.nodes_explored,
        result.cost_cuts, result.coverage_cuts, roster,
    ) == expected


@pytest.mark.parametrize("case, expected", PINNED, ids=[
    f"n{n}-m{m}-g{g}-seed{seed}" for (n, m, g, _, _, seed), _ in PINNED
])
def test_search_matches_the_recorded_one(case, expected):
    n, m, g, feasible_max, tightness, seed = case
    check(GeneratorParams(
        n=n, m=m, g=g, feasible_min=3, feasible_max=feasible_max,
        tightness=tightness, seed=seed,
    ), expected)


@pytest.mark.parametrize("case, expected", REACH, ids=[
    f"n{n}-m{m}-seed{seed}" for (n, m, seed), _ in REACH
])
def test_reach_set_matches_the_recorded_search(case, expected):
    n, m, seed = case
    check(GeneratorParams(n=n, m=m, g=3, feasible_min=4, feasible_max=8, seed=seed), expected)
