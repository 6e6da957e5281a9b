import random
import sys
import warnings

import pytest

from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import Nurse, is_feasible, preference_cost
from nrp.oracle import (
    INFEASIBLE, NODE_BUDGET, OPTIMAL, TIMEOUT, _components, _tables, exact_solve
)

from bruteforce import (
    BF_INFEASIBLE,
    BF_OPTIMAL,
    brute_force_solve,
    components_by_definition,
    exact_solve_child_by_call,
    first_optimal_roster,
    qualified,
)
from conftest import demand_rows, leftover_garbage, make_instance


def test_single_nurse_with_covering_pattern():
    inst = make_instance(
        [(0,)],
        [Nurse(0, 1, {0: 7})],
        demand_rows([[1]] + [[0]] * 13),
    )
    result = exact_solve(inst)
    assert result.status == OPTIMAL
    assert result.optimal_cost == 7
    assert result.optimal_roster.assignment == [0]


def test_demand_beyond_headcount_is_infeasible():
    inst = make_instance(
        [(0,)],
        [Nurse(0, 1, {0: 0})],
        demand_rows([[2]] + [[0]] * 13),
    )
    result = exact_solve(inst)
    assert result.status == INFEASIBLE
    assert result.optimal_cost is None
    assert result.optimal_roster is None


def test_optimal_roster_is_verified_feasible_and_costed():
    rng = random.Random(5)
    for trial in range(20):
        inst = generate_instance(
            GeneratorParams(n=rng.randint(2, 6), m=8, g=2, seed=4300 + trial)
        )
        result = exact_solve(inst)
        assert result.status == OPTIMAL  # generator guarantees feasibility
        assert is_feasible(inst, result.optimal_roster)
        assert preference_cost(inst, result.optimal_roster) == result.optimal_cost


def test_prefers_cheaper_of_two_feasible_choices():
    patterns = [(0,), (0,)]
    nurses = [Nurse(0, 1, {0: 30, 1: 12})]
    inst = make_instance(patterns, nurses, demand_rows([[1]] + [[0]] * 13))
    assert exact_solve(inst).optimal_cost == 12


def test_tiny_node_budget_reports_timeout():
    inst = generate_instance(GeneratorParams(n=6, m=10, g=3, seed=1))
    result = exact_solve(inst, node_budget=2)
    assert result.status == TIMEOUT


def test_nodes_explored_never_exceed_the_budget():
    inst = generate_instance(GeneratorParams(n=6, m=10, g=3, seed=1))
    needed = exact_solve(inst).nodes_explored
    assert exact_solve(inst, node_budget=needed).status == OPTIMAL
    for budget in (1, 2, 7, needed - 1):
        result = exact_solve(inst, node_budget=budget)
        assert result.status == TIMEOUT
        assert result.nodes_explored == budget


def test_timeout_reports_a_feasible_costed_incumbent():
    """A budget that stops the search after a leaf admitted a roster returns
    that roster, feasible and costed; one that stops before returns none.
    Components are searched in turn, and a roster needs one from each."""
    with_roster = without = 0
    for seed in range(10):
        inst = generate_instance(GeneratorParams(n=8, m=12, g=3, feasible_min=4, seed=seed))
        full = exact_solve(inst)
        needed = full.nodes_explored
        for budget in sorted({1, needed // 4, needed // 2, needed - 1}):
            result = exact_solve(inst, node_budget=budget)
            assert result.status == TIMEOUT
            assert (result.optimal_cost is None) == (result.optimal_roster is None)
            if result.optimal_roster is None:
                without += 1
                continue
            with_roster += 1
            assert is_feasible(inst, result.optimal_roster)
            assert preference_cost(inst, result.optimal_roster) == result.optimal_cost
            assert result.optimal_cost >= full.optimal_cost
    assert with_roster >= 10 and without >= 6  # both outcomes were exercised


def test_a_component_too_deep_for_the_stack_times_out():
    """The search recurses once per nurse of a component, so one of more
    nurses than the recursion limit ends as a TIMEOUT, not a RecursionError."""
    inst = generate_instance(GeneratorParams(n=2600, m=12, g=1))
    components, _ = _components(inst)
    assert max(len(ids) for ids, _ in components) > sys.getrecursionlimit()
    result = exact_solve(inst)
    assert result.status == TIMEOUT
    assert result.optimal_cost is None and result.optimal_roster is None
    assert 0 < result.nodes_explored < NODE_BUDGET


def test_node_budget_below_one_is_rejected():
    inst = generate_instance(GeneratorParams(n=3, m=6, g=2, seed=1))
    for budget in (0, -5):
        with pytest.raises(ValueError, match="node_budget"):
            exact_solve(inst, node_budget=budget)


def test_cut_counters():
    infeasible = make_instance(
        [(0,)],
        [Nurse(0, 1, {0: 0}), Nurse(1, 1, {0: 0})],
        demand_rows([[3]] + [[0]] * 13),
    )
    result = exact_solve(infeasible)
    assert result.status == INFEASIBLE
    assert result.coverage_cuts >= 1
    assert result.cost_cuts == 0  # no incumbent, so no cost bound can bite
    feasible = generate_instance(GeneratorParams(n=8, m=12, g=3, feasible_min=4, seed=3))
    result = exact_solve(feasible)
    assert result.status == OPTIMAL
    assert result.cost_cuts > 0


def test_each_outcome_leaves_no_cyclic_garbage():
    """The search is a closure that calls itself; exact_solve breaks that
    cycle, so its tables are freed on return, not by the cyclic collector."""
    generated = generate_instance(GeneratorParams(n=6, m=10, g=3, seed=1))
    stranded = make_instance(  # nobody works period 13
        [(0,), (7,)], [Nurse(0, 1, {0: 0}), Nurse(1, 1, {1: 0})],
        demand_rows([[1]] + [[0]] * 12 + [[1]]),
    )
    either = make_instance(  # each period has a worker, but the one nurse works only one
        [(0,), (1,)], [Nurse(0, 1, {0: 0, 1: 0})],
        demand_rows([[1], [1]] + [[0]] * 12),
    )
    assert exact_solve(stranded).nodes_explored == 0 < exact_solve(either).nodes_explored
    cases = [(generated, NODE_BUDGET, OPTIMAL), (stranded, NODE_BUDGET, INFEASIBLE),
             (either, NODE_BUDGET, INFEASIBLE), (generated, 2, TIMEOUT)]
    for inst, budget, status in cases:
        assert exact_solve(inst, budget).status == status
        assert leftover_garbage(lambda: exact_solve(inst, budget)) == 0


def test_matches_unpruned_enumeration_on_random_instances():
    rng = random.Random(9)
    for trial in range(40):
        inst = generate_instance(
            GeneratorParams(
                n=rng.randint(2, 5),
                m=8,
                g=rng.randint(1, 3),
                feasible_min=1,
                feasible_max=4,
                tightness=rng.choice([0.7, 0.9, 1.0]),
                seed=4900 + trial,
            )
        )
        status, cost = brute_force_solve(inst)
        result = exact_solve(inst)
        assert (status == BF_OPTIMAL) == (result.status == OPTIMAL)
        if status == BF_OPTIMAL:
            assert result.optimal_cost == cost


def test_matches_enumeration_on_hand_made_infeasible_variants():
    # bump one demand cell beyond reach to force disagreement opportunities;
    # the bump may break the cumulative convention, which only warns
    rng = random.Random(15)
    for trial in range(10):
        inst = generate_instance(GeneratorParams(n=3, m=6, g=2, feasible_max=3, seed=5500 + trial))
        rows = [list(row) for row in inst.demand.r]
        rows[rng.randrange(14)][rng.randrange(2)] += inst.n + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bumped = make_instance(inst.patterns, inst.nurses, demand_rows(rows))
        status, cost = brute_force_solve(bumped)
        result = exact_solve(bumped)
        assert status == BF_INFEASIBLE
        assert result.status == INFEASIBLE


def test_deterministic_across_calls():
    inst = generate_instance(GeneratorParams(n=5, m=8, g=2, seed=77))
    a = exact_solve(inst)
    b = exact_solve(inst)
    assert a.optimal_cost == b.optimal_cost
    assert a.optimal_roster.assignment == b.optimal_roster.assignment
    assert a.nodes_explored == b.nodes_explored


def _tie_break_cases():
    """Seeded instances for the tie-break check, g = 1-3.

    Each generated instance comes in three variants: as generated, with costs
    redrawn from a two-value palette so that many rosters tie, and with one
    demand cell bumped out of reach so that no roster is feasible.
    """
    rng = random.Random(31)
    for trial in range(30):
        inst = generate_instance(
            GeneratorParams(
                n=rng.randint(2, 5),
                m=8,
                g=1 + trial % 3,
                feasible_min=2,
                feasible_max=4,
                tightness=rng.choice([0.5, 0.7, 0.9, 1.0]),
                seed=6100 + trial,
            )
        )
        yield inst
        palette = rng.choice([(0, 10), (5, 5), (0, 0, 1)])
        tied = [
            Nurse(nurse.id, nurse.grade, {j: rng.choice(palette) for j in nurse.feasible})
            for nurse in inst.nurses
        ]
        yield make_instance(inst.patterns, tied, inst.demand)
        rows = [list(row) for row in inst.demand.r]
        rows[rng.randrange(14)][rng.randrange(inst.g)] += inst.n + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield make_instance(inst.patterns, tied, demand_rows(rows))


def test_returns_the_first_optimal_roster_in_search_order():
    # among equal-cost optima the search keeps the first it meets: nurses in
    # id order, patterns cheapest first with ties in feasible-list order
    for inst in _tie_break_cases():
        expected = first_optimal_roster(inst)
        result = exact_solve(inst)
        if expected is None:
            assert result.status == INFEASIBLE
        else:
            assert result.status == OPTIMAL
            assert result.optimal_roster.assignment == expected


def _thinned(inst, rng):
    """inst with most demand cells set to 0, rows kept non-decreasing."""
    rows = [sorted(d if rng.random() < 0.3 else 0 for d in row) for row in inst.demand.r]
    return make_instance(inst.patterns, inst.nurses, demand_rows(rows))


def test_components_match_the_definition_on_generated_instances():
    rng = random.Random(41)
    sizes = set()
    for trial in range(40):
        inst = generate_instance(GeneratorParams(
            n=rng.randint(1, 12), m=rng.choice([6, 12, 20]), g=1 + trial % 4,
            feasible_min=1, feasible_max=5, tightness=rng.choice([0.3, 0.7, 1.0]),
            seed=7300 + trial,
        ))
        for variant in (inst, _thinned(inst, rng)):
            expected = components_by_definition(variant)
            components, _ = _components(variant)
            assert [ids for ids, _ in components] == expected
            assert exact_solve(variant).components == len(expected)
            sizes.add(len(expected))
    assert {1, 2} < sizes  # one component, the day/night split and finer ones all occur


def test_a_nurse_who_works_days_and_nights_merges_the_halves():
    patterns = [(0,), (7,), (0, 7)]
    day, night = Nurse(0, 1, {0: 5}), Nurse(1, 1, {1: 5})
    demand = demand_rows([[1]] + [[0]] * 6 + [[2]] + [[0]] * 6)
    split = make_instance(patterns, [day, night, Nurse(2, 1, {1: 9})], demand)
    assert components_by_definition(split) == [[0], [1, 2]]
    both = make_instance(patterns, [day, night, Nurse(2, 1, {0: 1, 2: 9})], demand)
    assert components_by_definition(both) == [[0, 1, 2]]
    for inst in (split, both):
        result = exact_solve(inst)
        assert result.components == len(components_by_definition(inst))
        assert result.status == OPTIMAL
        assert result.optimal_roster.assignment == first_optimal_roster(inst)


def test_interleaved_components_stitch_the_first_optimal_roster():
    # nurses 0, 2 and 4 work days, 1 and 3 nights; costs tie so order decides
    patterns = [(0, 1), (0,), (1,), (7,), (8,), (7, 8)]
    day = (0, 1, 2)
    night = (3, 4, 5)
    nurses = [
        Nurse(i, 1 + i % 2, {j: (i + j) % 3 for j in (day if i % 2 == 0 else night)})
        for i in range(5)
    ]
    demand = demand_rows([[1, 2], [1, 2]] + [[0, 0]] * 5 + [[0, 1], [0, 2]] + [[0, 0]] * 5)
    inst = make_instance(patterns, nurses, demand)
    assert components_by_definition(inst) == [[0, 2, 4], [1, 3]]
    result = exact_solve(inst)
    assert result.components == 2
    assert result.status == OPTIMAL
    assert result.optimal_roster.assignment == first_optimal_roster(inst)
    assert result.optimal_cost == brute_force_solve(inst)[1]


def test_a_demanded_cell_nobody_can_work_is_infeasible_before_any_node():
    patterns = [(0,), (7,)]
    no_period = make_instance(  # nobody works period 13
        patterns, [Nurse(0, 1, {0: 0}), Nurse(1, 1, {1: 0})],
        demand_rows([[1]] + [[0]] * 12 + [[1]]),
    )
    no_grade = make_instance(  # band 1 wants a grade-1 nurse; both are grade 2
        patterns, [Nurse(0, 2, {0: 0}), Nurse(1, 2, {1: 0})],
        demand_rows([[1, 1]] + [[0, 0]] * 13),
    )
    for inst in (no_period, no_grade):
        result = exact_solve(inst)
        assert (result.status, result.optimal_cost, result.optimal_roster) == (INFEASIBLE, None, None)
        assert (result.nodes_explored, result.cost_cuts, result.coverage_cuts) == (0, 0, 1)
        assert first_optimal_roster(inst) is None


def _dearer_subset_first():
    """One nurse whose feasible list puts A (cost 5, period 0) before B
    (cost 1, periods 0 and 1).  The combined scan keeps both, as A's only
    superset comes later, but in cost order B comes first and covers A."""
    patterns = [(0,), (0, 1)]
    nurse = Nurse(0, 1, {0: 5, 1: 1})
    return make_instance(patterns, [nurse], demand_rows([[1]] * 2 + [[0]] * 12))


def _search_order_cases():
    """Generated instances for g = 1-3, tie-heavy ones for g = 1-6 (most
    costs round to 0 under cost_exponent 8), and _dearer_subset_first."""
    rng = random.Random(23)
    for trial in range(40):
        yield generate_instance(GeneratorParams(
            n=rng.randint(1, 8), m=rng.choice([4, 8, 16]), g=1 + trial % 3,
            feasible_min=1, feasible_max=8, seed=7700 + trial,
        ))
    for trial in range(18):
        yield generate_instance(GeneratorParams(
            n=rng.randint(1, 8), m=rng.choice([4, 8, 16]), g=1 + trial % 6,
            feasible_min=1, feasible_max=8, cost_exponent=8, seed=7800 + trial,
        ))
    yield _dearer_subset_first()


def test_search_orders_drop_exactly_the_dominated_patterns():
    """Each nurse's choices follow her cost order, ties in feasible-list
    order, less every pattern an earlier entry of that order works all
    periods of."""
    dropped = kept = tied = 0
    for inst in _search_order_cases():
        choices, _, _, _ = _tables(inst, list(range(inst.n)))
        for nurse, choice in zip(inst.nurses, choices):
            tied += len(nurse.feasible) - len(set(nurse.pref_cost.values()))
            order = [j for j, _, _ in choice]
            by_cost = sorted(nurse.feasible, key=lambda j: nurse.pref_cost[j])
            dominated = [
                j for index, j in enumerate(by_cost)
                if any(
                    all(k in inst.patterns[earlier] for k in inst.patterns[j])
                    for earlier in by_cost[:index]
                )
            ]
            assert order == [j for j in by_cost if j not in dominated]
            # each choice carries its cost and its cells in every band the nurse serves
            assert choice == [
                (j, nurse.pref_cost[j], sum(
                    1 << (s * inst.band_span + k * inst.field_width)
                    for s in range(nurse.grade - 1, inst.g) for k in inst.patterns[j]
                ))
                for j in order
            ]
            dropped += len(dominated)
            kept += len(order)
    assert dropped > 20 and kept > 100
    assert tied > 70  # 19 of them without the tie-heavy cases
    hand_made = _dearer_subset_first()
    assert [row[2] for row in hand_made.combined_scan[0]] == [1, 0]
    choices, _, _, _ = _tables(hand_made, [0])
    assert [j for j, _, _ in choices[0]] == [1]


def _tables_rebuilding_by_cost(inst, ids):
    """_tables as it was when every depth rebuilt the cost buckets from all
    the least extras: the reference for the kept buckets."""
    size, width, span = len(ids), inst.field_width, inst.band_span
    choices, to_go, avail, extra = [[]] * size, [0] * (size + 1), [0] * (size + 1), [[]] * size
    least = {}
    for d in range(size - 1, -1, -1):
        nurse = inst.nurses[ids[d]]
        price, cells = nurse.pref_cost, inst.nurse_cells[nurse.id]
        order = sorted(nurse.feasible, key=price.__getitem__)
        cheapest = price[order[0]]
        to_go[d] = to_go[d + 1] + cheapest
        choices[d], seen, forced = [], 0, {}
        for j in order:
            if not inst.supersets[j] & seen:
                choices[d].append((j, price[j], cells[j]))
                for k in inst.patterns[j]:
                    forced.setdefault(k, price[j] - cheapest)
            seen |= 1 << j
        avail[d] = avail[d + 1] + (inst.reach[nurse.id] & inst.low_bits)
        for s in range(nurse.grade - 1, inst.g):
            for k, more in forced.items():
                bit = s * span + k * width + width - 1
                least[bit] = min(more, least.get(bit, more))
        by_cost = {}
        for bit, more in least.items():
            if more:
                by_cost[more] = by_cost.get(more, 0) | 1 << bit
        extra[d] = sorted(by_cost.items(), reverse=True)
    return choices, to_go, avail, extra


def test_kept_cost_buckets_match_a_rebuild_per_depth():
    compared = 0
    for g in range(1, 7):
        for n in range(4, 17, 3):
            for seed in range(6):
                inst = generate_instance(GeneratorParams(
                    n=n, m=12, g=g, feasible_min=3, feasible_max=8, seed=7900 + seed,
                ))
                components, _ = _components(inst)
                for ids, _ in components:
                    assert _tables(inst, ids) == _tables_rebuilding_by_cost(inst, ids)
                    compared += 1
    assert compared > 200


def _component_alone(inst, ids):
    """The instance of nurses ids alone, renumbered in id order, with the
    demand of every cell none of them can work set to 0."""
    nurses = [
        Nurse(new, inst.nurses[i].grade, inst.nurses[i].pref_cost)
        for new, i in enumerate(ids)
    ]
    rows = [
        [
            d if any(
                qualified(inst, i, s + 1)
                and any(k in inst.patterns[j] for j in inst.nurses[i].feasible)
                for i in ids
            ) else 0
            for s, d in enumerate(row)
        ]
        for k, row in enumerate(inst.demand.r)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_instance(inst.patterns, nurses, demand_rows(rows))


def test_a_budget_spent_at_a_component_boundary_times_out_without_a_roster():
    """The first component proves its part with the last node of the
    budget; the second then starts with none left, so the call times out
    with no roster.  The full count proves the instance."""
    for seed in range(6):
        inst = generate_instance(GeneratorParams(n=8, m=12, g=3, feasible_min=4, seed=seed))
        components = components_by_definition(inst)
        assert len(components) == 2
        first = exact_solve(_component_alone(inst, components[0]))
        assert (first.status, first.components) == (OPTIMAL, 1)
        full = exact_solve(inst)
        assert full.status == OPTIMAL
        assert 0 < first.nodes_explored < full.nodes_explored
        spent = exact_solve(inst, first.nodes_explored)
        assert spent.status == TIMEOUT
        assert spent.nodes_explored == first.nodes_explored
        assert (spent.optimal_cost, spent.optimal_roster) == (None, None)
        enough = exact_solve(inst, full.nodes_explored)
        assert enough.status == OPTIMAL
        assert enough.nodes_explored == full.nodes_explored
        assert (enough.optimal_cost, enough.optimal_roster) == (full.optimal_cost, full.optimal_roster)


def _budget_sweep_cases():
    """Small generated instances, g = 1-4, which split into a day and a
    night component; the infeasible instance of test_cut_counters, whose
    root is coverage-cut; one with a demanded cell nobody can work; and one
    whose root passes the coverage cut but whose every child is cut."""
    rng = random.Random(61)
    for trial in range(20):
        yield generate_instance(GeneratorParams(
            n=rng.randint(3, 10), m=rng.choice([6, 10, 14]), g=1 + trial % 4,
            feasible_min=3, feasible_max=8, tightness=rng.choice([0.7, 0.9, 1.0]),
            seed=8100 + trial,
        ))
    yield make_instance(
        [(0,)],
        [Nurse(0, 1, {0: 0}), Nurse(1, 1, {0: 0})],
        demand_rows([[3]] + [[0]] * 13),
    )
    yield make_instance(
        [(0,), (7,)],
        [Nurse(0, 1, {0: 0}), Nurse(1, 1, {1: 0})],
        demand_rows([[1]] + [[0]] * 12 + [[1]]),
    )
    # each nurse works period 0 or period 1, and each period wants both
    yield make_instance(
        [(0,), (1,)],
        [Nurse(0, 1, {0: 0, 1: 1}), Nurse(1, 1, {0: 1, 1: 0})],
        demand_rows([[2], [2]] + [[0]] * 12),
    )


def test_every_budget_matches_the_search_that_calls_each_child():
    """Testing a child's cuts in its parent's loop changes no field of the
    result: every budget from 1 to one past the full node count gives the
    result of the search that made a call for every child."""
    statuses, split, compared, searched_in_vain = set(), 0, 0, 0
    for inst in _budget_sweep_cases():
        full = exact_solve_child_by_call(inst, NODE_BUDGET)
        split += full.components >= 2
        searched_in_vain += full.status == INFEASIBLE and full.nodes_explored > 0
        for budget in range(1, full.nodes_explored + 2):
            result = exact_solve(inst, budget)
            assert result == exact_solve_child_by_call(inst, budget)
            statuses.add((result.status, result.optimal_roster is None))
            compared += 1
    assert split >= 10 and compared > 1000 and searched_in_vain == 1
    assert statuses == {
        (OPTIMAL, False), (INFEASIBLE, True), (TIMEOUT, True), (TIMEOUT, False)
    }
