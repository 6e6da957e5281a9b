"""Metamorphic relations of the exact solver: each variant of an instance
has an optimum that the instance's own proven optimum predicts.

They check optima past n <= 8, where brute force (tests/bruteforce.py) stops
checking the oracle, and need no second oracle: the instances are generated with
n = 8-14, m = 12, g = 3 and seeds 0-11, or are the 8 of build_desk_suite(8)
(n = 4-6, m = 10-12, g = 2-3), and each is proven first.  Every
variant must end OPTIMAL (raised demand may also end INFEASIBLE) with a
roster that is_feasible accepts on the variant and whose preference_cost
equals the predicted optimum.  The merge relation takes the day half of one
instance and the night half of the next one with as many grades, proves
each, and merges them.
"""

import functools
import random

import pytest

from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import Instance, Nurse, Roster, is_feasible, preference_cost
from nrp.oracle import INFEASIBLE, OPTIMAL, exact_solve

from suite import build_desk_suite

SIZES = range(8, 15)
SEEDS = range(12)
DESK = "desk"  # the source of the desk suite's instances, beside the sizes
SOURCES = [*SIZES, DESK]


@functools.cache
def desk_suite() -> list[Instance]:
    return build_desk_suite(8)


def indices(source) -> range:
    """The seeds of a generated size, or the positions in the desk suite."""
    return range(len(desk_suite())) if source == DESK else SEEDS


@functools.cache
def proven(source, index: int) -> tuple[Instance, int, Roster]:
    if source == DESK:
        inst = desk_suite()[index]
    else:
        inst = generate_instance(GeneratorParams(n=source, m=12, g=3, seed=index))
    result = exact_solve(inst)
    assert result.status == OPTIMAL, (source, index)
    return inst, result.optimal_cost, result.optimal_roster


def assert_optimum(inst: Instance, expected: int, case) -> None:
    result = exact_solve(inst)
    assert result.status == OPTIMAL, case
    assert result.optimal_cost == expected, case
    assert is_feasible(inst, result.optimal_roster), case
    assert preference_cost(inst, result.optimal_roster) == expected, case


def cases(source):
    for index in indices(source):
        inst, optimum, roster = proven(source, index)
        yield (source, index), random.Random(f"{source}-{index}"), inst, optimum, roster


@pytest.mark.parametrize("source", SOURCES)
def test_relabelling_nurses_patterns_and_feasible_order_keeps_the_optimum(source):
    for case, rng, inst, optimum, _ in cases(source):
        order = rng.sample(range(inst.m), inst.m)  # new pattern id -> old id
        new_id = {old: new for new, old in enumerate(order)}
        nurses = []
        for i, old in enumerate(rng.sample(inst.nurses, inst.n)):
            feasible = rng.sample(old.feasible, len(old.feasible))
            nurses.append(Nurse(i, old.grade, {new_id[j]: old.pref_cost[j] for j in feasible}))
        variant = Instance([inst.patterns[j] for j in order], nurses, inst.demand)
        assert_optimum(variant, optimum, case)


@pytest.mark.parametrize("source", SOURCES)
def test_shifting_one_nurses_costs_by_c_shifts_the_optimum_by_c(source):
    for case, rng, inst, optimum, _ in cases(source):
        i = rng.randrange(inst.n)
        room = 100 - max(inst.nurses[i].pref_cost.values())
        assert room > 0, case
        c = rng.randint(1, room)
        nurses = list(inst.nurses)
        old = nurses[i]
        nurses[i] = Nurse(i, old.grade, {j: cost + c for j, cost in old.pref_cost.items()})
        assert_optimum(Instance(inst.patterns, nurses, inst.demand), optimum + c, case)


@pytest.mark.parametrize("source", SOURCES)
def test_a_dearer_copy_of_each_nurses_first_pattern_keeps_the_optimum(source):
    for case, _, inst, optimum, _ in cases(source):
        patterns, nurses = list(inst.patterns), []
        for nurse in inst.nurses:
            first = nurse.feasible[0]
            patterns.append(inst.patterns[first])  # same periods, a new id
            # a first pattern at cost 100 gets a copy at 100: a tie, which
            # leaves the optimum unchanged too
            copy_cost = min(nurse.pref_cost[first] + 1, 100)
            costs = {**nurse.pref_cost, len(patterns) - 1: copy_cost}
            nurses.append(Nurse(nurse.id, nurse.grade, costs))
        assert_optimum(Instance(patterns, nurses, inst.demand), optimum, case)


@pytest.mark.parametrize("source", SOURCES)
def test_zero_demand_costs_each_nurses_cheapest_pattern(source):
    for case, _, inst, _, _ in cases(source):
        variant = Instance(inst.patterns, inst.nurses, ((0,) * inst.g,) * len(inst.demand))
        cheapest = sum(min(nurse.pref_cost.values()) for nurse in inst.nurses)
        assert_optimum(variant, cheapest, case)


@pytest.mark.parametrize("source", SOURCES)
def test_raising_one_demand_cell_never_lowers_the_optimum(source):
    for case, rng, inst, optimum, roster in cases(source):
        k, s = rng.randrange(len(inst.demand)), rng.randrange(inst.g)
        rows = [list(row) for row in inst.demand]
        rows[k][s] += 1
        variant = Instance(inst.patterns, inst.nurses, tuple(map(tuple, rows)))
        result = exact_solve(variant)
        if result.status == INFEASIBLE:
            assert not is_feasible(variant, roster), case
            continue
        assert result.status == OPTIMAL, case
        assert result.optimal_cost >= optimum, case
        assert is_feasible(variant, result.optimal_roster), case
        assert preference_cost(variant, result.optimal_roster) == result.optimal_cost, case
        if is_feasible(variant, roster):  # the old optimum still serves
            assert result.optimal_cost == optimum, case


def half(inst: Instance, nights: bool) -> Instance:
    """The nurses and patterns of inst on one half of the week, with the
    demand of the other half set to 0; patterns and nurses keep their
    order and are numbered anew."""
    on_half = [j for j, periods in enumerate(inst.patterns)
               if (periods[0] >= 7) == nights]
    new_id = {old: new for new, old in enumerate(on_half)}
    kept = [nurse for nurse in inst.nurses if nurse.feasible[0] in new_id]
    nurses = [Nurse(i, nurse.grade, {new_id[j]: cost for j, cost in nurse.pref_cost.items()})
              for i, nurse in enumerate(kept)]
    zero = (0,) * inst.g
    demand = tuple(row if (k >= 7) == nights else zero for k, row in enumerate(inst.demand))
    return Instance([inst.patterns[j] for j in on_half], nurses, demand)


def partner(source, index: int) -> int:
    """The next instance of the source after index, cyclically, with the
    same grade count: the next seed for a generated size."""
    g = proven(source, index)[0].g
    same = [i for i in indices(source) if proven(source, i)[0].g == g]
    return same[(same.index(index) + 1) % len(same)]


@pytest.mark.parametrize("source", SOURCES)
def test_a_day_and_a_night_instance_merged_cost_the_sum_of_their_optima(source):
    for index in indices(source):
        case = (source, index)
        day = half(proven(source, index)[0], nights=False)
        night = half(proven(source, partner(source, index))[0], nights=True)
        parts = [exact_solve(day), exact_solve(night)]
        assert [part.status for part in parts] == [OPTIMAL, OPTIMAL], case
        shift = day.m
        nurses = list(day.nurses) + [
            Nurse(day.n + nurse.id, nurse.grade,
                  {shift + j: cost for j, cost in nurse.pref_cost.items()})
            for nurse in night.nurses]
        merged = Instance(day.patterns + night.patterns, nurses, day.demand[:7] + night.demand[7:])
        assert_optimum(merged, parts[0].optimal_cost + parts[1].optimal_cost, case)
        # the components of both, and each one's first optimal roster
        result = exact_solve(merged)
        assert result.components == parts[0].components + parts[1].components, case
        night_roster = [shift + j for j in parts[1].optimal_roster.assignment]
        assert result.optimal_roster.assignment == (
            parts[0].optimal_roster.assignment + night_roster), case
