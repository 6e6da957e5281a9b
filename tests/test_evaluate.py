import math
import random

import pytest

from nrp.evaluate import (
    EvalWeights,
    _contributions,
    _terms,
    component_fitness_all,
    coverage_contribution,
    penalized_cost,
)
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import (
    IncompleteRosterError,
    Nurse,
    Roster,
    compute_coverage,
    preference_cost,
)

from bruteforce import (
    contribution_by_removal,
    coverage_matrix,
    fitness_by_definition,
    penalized_cost_by_definition,
)
from conftest import demand_rows, field_maximum_instance, flat_demand, make_instance


def three_nurse_instance(costs):
    """Three grade-1 nurses, each with one fixed day pattern; demand zero."""
    patterns = [(0,), (1,), (2,)]
    nurses = [
        Nurse(i, 1, {i: costs[i]}) for i in range(3)
    ]
    return make_instance(patterns, nurses, flat_demand(1))


class TestEvalWeights:
    def test_defaults_are_valid(self):
        w = EvalWeights()
        assert w.w1 + w.w2 == 1.0

    def test_rejects_unbalanced_fitness_weights(self):
        # w2 = 1 - w1, so a w1 outside [0, 1] would make one of them negative
        for w1 in (-0.2, 1.5):
            with pytest.raises(ValueError, match="w1"):
                EvalWeights(w1=w1)

    def test_w2_is_derived_from_w1(self):
        for w1 in (0.0, 0.25, 0.3, 0.5, 0.6, 1.0):
            assert EvalWeights(w1=w1).w2 == 1.0 - w1
        # the blends in use give the float a passed w2 gave
        assert (EvalWeights(w1=0.3).w2, EvalWeights(w1=0.25).w2) == (0.7, 0.75)

    def test_takes_keywords_only(self):
        # positionally, 0.7 would land in w_demand
        with pytest.raises(TypeError):
            EvalWeights(0.3, 0.7)

    @pytest.mark.parametrize("field", ["w1", "w_demand"])
    def test_rejects_non_finite_weights(self, field):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                EvalWeights(**{field: value})

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(ValueError, match="w_demand"):
            EvalWeights(w_demand=0)

    @pytest.mark.parametrize("field", ["w_p", "w_grade"])
    def test_holds_no_reconstruction_weight(self, field):
        # the combined rule's weights belong to ReconstructionConfig
        with pytest.raises(TypeError):
            EvalWeights(**{field: 1.0})


class TestCoverageContribution:
    def test_zero_mask_contributes_nothing(self):
        inst = make_instance(
            [()], [Nurse(0, 1, {0: 0})], flat_demand(2, 1)
        )
        roster = Roster([0])
        cov = compute_coverage(inst, roster)
        assert coverage_contribution(inst, roster, cov, 0) == 0

    def test_sole_contributor_counts_every_band(self):
        # five covered days, three bands, demand one everywhere: 15 slots at risk
        inst = make_instance(
            [(0, 1, 2, 3, 4)],
            [Nurse(0, 1, {0: 0})],
            flat_demand(3, 1),
        )
        roster = Roster([0])
        cov = compute_coverage(inst, roster)
        assert coverage_contribution(inst, roster, cov, 0) == 15

    def test_incomplete_roster_raises(self, week_instance):
        roster = Roster([0, None, 2])
        cov = compute_coverage(week_instance, roster)
        with pytest.raises(IncompleteRosterError):
            coverage_contribution(week_instance, roster, cov, 1)

    def test_matches_remove_and_recount_oracle(self):
        rng = random.Random(13)
        cases = []
        for g in (3, 1, 2, 4, 5, 6):  # g = 3 first draws the same 40 instances as before
            for trial in range(40):
                inst = generate_instance(
                    GeneratorParams(n=rng.randint(2, 6), m=10, g=g, seed=900 + trial)
                )
                cases.append((inst, Roster([rng.choice(n.feasible) for n in inst.nurses])))
        rng = random.Random(19)
        for trial in range(36):  # g = 1-6, one cell at the field maximum
            inst = field_maximum_instance(rng, 1 + trial % 6)
            cases.append((inst, Roster([rng.choice(n.feasible) for n in inst.nurses])))
        for inst, roster in cases:
            cov = compute_coverage(inst, roster)
            covered = coverage_matrix(inst, roster)
            for i in range(inst.n):
                expected = contribution_by_removal(inst, roster, i)
                assert coverage_contribution(inst, roster, cov, i) == expected
                # the replay's form: one matrix less her own count
                assert contribution_by_removal(inst, roster, i, covered) == expected

    def test_packed_popcount_matches_per_band_count(self):
        # fitness counts every nurse with one popcount over packed band lanes
        rng = random.Random(17)
        cases = []
        for trial in range(180):
            g = 1 + trial % 6
            inst = generate_instance(
                GeneratorParams(
                    n=rng.randint(1, 12),
                    m=rng.randint(2, 30),
                    g=g,
                    feasible_min=1,
                    feasible_max=rng.randint(1, 10),
                    tightness=rng.uniform(0.3, 1.0),
                    seed=1900 + trial,
                )
            )
            cases.append((inst, Roster([rng.choice(n.feasible) for n in inst.nurses])))
        rng = random.Random(23)
        for trial in range(36):  # g = 1-6, one cell at the field maximum
            inst = field_maximum_instance(rng, 1 + trial % 6)
            cases.append((inst, Roster([rng.choice(n.feasible) for n in inst.nurses])))
        for inst, roster in cases:
            cov = compute_coverage(inst, roster)
            assert _contributions(inst, roster, cov) == [
                coverage_contribution(inst, roster, cov, i) for i in range(inst.n)
            ]


PREFERENCE = EvalWeights(w1=1.0)  # fitness equals the preference part f1
COVERAGE = EvalWeights(w1=0.0)  # fitness equals the coverage part f2


def fitness(inst, roster, weights):
    """component_fitness_all on a state recounted from the roster."""
    return component_fitness_all(inst, roster, weights, compute_coverage(inst, roster))


def penalized(inst, roster, weights):
    """penalized_cost on a state recounted from the roster."""
    return penalized_cost(roster, weights, compute_coverage(inst, roster))


class TestComponentFitness:
    def test_cheapest_assignment_gets_full_preference_fitness(self):
        inst = three_nurse_instance([0, 10, 100])
        fits = fitness(inst, Roster([0, 1, 2]), PREFERENCE)
        assert fits[0] == 1.0
        assert fits[2] == 0.0

    def test_middle_cost_interpolates(self):
        inst = three_nurse_instance([0, 10, 100])
        fits = fitness(inst, Roster([0, 1, 2]), PREFERENCE)
        assert fits[1] == pytest.approx(0.9)

    def test_largest_contribution_gets_full_coverage_fitness(self):
        # nurse 0 covers three demanded days, nurse 1 covers one
        patterns = [(0, 1, 2), (3,)]
        nurses = [Nurse(0, 1, {0: 0}), Nurse(1, 1, {1: 0})]
        inst = make_instance(patterns, nurses, flat_demand(1, 1))
        roster = Roster([0, 1])
        fits = fitness(inst, roster, COVERAGE)
        assert fits[0] == 1.0
        assert fits[1] == 0.0

    def test_all_equal_costs_pin_preference_to_half(self):
        inst = three_nurse_instance([7, 7, 7])
        fits = fitness(inst, Roster([0, 1, 2]), PREFERENCE)
        assert all(f == 0.5 for f in fits)

    def test_combined_is_weighted_blend_in_unit_range(self):
        rng = random.Random(17)
        for trial in range(20):
            inst = generate_instance(GeneratorParams(n=5, m=8, g=2, seed=1300 + trial))
            roster = Roster([rng.choice(n.feasible) for n in inst.nurses])
            w = EvalWeights(w1=0.3)
            parts = zip(
                fitness(inst, roster, PREFERENCE),
                fitness(inst, roster, COVERAGE),
                fitness(inst, roster, w),
            )
            for preference, coverage, combined in parts:
                assert 0.0 <= preference <= 1.0
                assert 0.0 <= coverage <= 1.0
                assert combined == pytest.approx(0.3 * preference + 0.7 * coverage)

    def test_preference_fitness_shift_invariant(self):
        base = [5, 20, 60]
        shifted = [c + 30 for c in base]
        fits_a = fitness(three_nurse_instance(base), Roster([0, 1, 2]), PREFERENCE)
        fits_b = fitness(three_nurse_instance(shifted), Roster([0, 1, 2]), PREFERENCE)
        for a, b in zip(fits_a, fits_b):
            assert a == pytest.approx(b)

    def test_a_kept_state_gives_the_fitness_of_a_fresh_one(self):
        """The state is carried through releases and re-assignments, as the
        solver carries it, and its kept costs give bit-equal floats."""
        rng = random.Random(29)
        for trial in range(60):
            g = 1 + trial % 6
            inst = generate_instance(GeneratorParams(n=rng.randint(2, 9), m=12, g=g,
                                                     seed=2900 + trial))
            roster = Roster([rng.choice(n.feasible) for n in inst.nurses])
            state = compute_coverage(inst, roster)
            for _ in range(8):
                for i in rng.sample(range(inst.n), rng.randint(1, inst.n)):
                    state.remove(i, roster.assignment[i])
                    roster.assignment[i] = rng.choice(inst.nurses[i].feasible)
                    state.add(i, roster.assignment[i])
                for weights in (EvalWeights(), PREFERENCE, COVERAGE):
                    kept = component_fitness_all(inst, roster, weights, state)
                    assert kept == fitness(inst, roster, weights)
                    assert penalized_cost(roster, weights, state) == (
                        penalized_cost_by_definition(inst, roster, weights))

    # 0 and -0.0, and 1 and 1.0, key the same term tables
    W1S = (0, -0.0, 0.25, 0.5, 1, 1.0)

    def fitness_cases(self):
        """Complete rosters at g = 1-6, then rosters whose costs are all
        equal, whose contributions are all equal, and of one nurse."""
        rng = random.Random(47)
        for trial in range(60):
            inst = generate_instance(GeneratorParams(
                n=rng.randint(1, 9), m=rng.randint(4, 40), g=1 + trial % 6,
                tightness=rng.uniform(0.3, 1.0), seed=4700 + trial))
            yield inst, Roster([rng.choice(n.feasible) for n in inst.nurses])
        patterns = [(0, 1, 2), (3,), (1, 4, 5, 6)]
        same_cost = [Nurse(i, 1, {i: 7}) for i in range(3)]
        yield make_instance(patterns, same_cost, flat_demand(1, 1)), Roster([0, 1, 2])
        priced = [Nurse(i, 1, {i: 30 * i + 1}) for i in range(3)]
        yield make_instance(patterns, priced, flat_demand(1)), Roster([0, 1, 2])
        for cost in (0, 55):
            yield make_instance(patterns, [Nurse(0, 1, {2: cost})], flat_demand(2, 1)), Roster([2])

    def test_tables_give_the_definitions_floats_bit_for_bit(self):
        """Every fitness float equals the per-nurse loop's, compared by
        float.hex so that a zero's sign counts too, with the term tables
        built in either order of the weights."""
        spans = set()
        for order in (self.W1S, self.W1S[::-1]):
            _terms.cache_clear()
            for inst, roster in self.fitness_cases():
                state = compute_coverage(inst, roster)
                for w1 in order:
                    weights = EvalWeights(w1=w1)
                    got = component_fitness_all(inst, roster, weights, state)
                    want = fitness_by_definition(inst, roster, weights)
                    assert list(map(float.hex, got)) == list(map(float.hex, want)), (inst, w1)
                contribs = _contributions(inst, roster, state)
                spans.add((inst.n == 1, max(state.costs) - min(state.costs) > 0,
                           max(contribs) - min(contribs) > 0))
        # one nurse, either span degenerate and both spans wide all occur
        assert spans >= {(True, False, False), (False, False, True), (False, True, False),
                         (False, True, True)}

    def test_pure_function_repeats_bit_for_bit(self, week_instance):
        roster = Roster([0, 1, 2])
        first = fitness(week_instance, roster, EvalWeights())
        second = fitness(week_instance, roster, EvalWeights())
        assert first == second

    def test_requires_complete_roster(self, week_instance):
        with pytest.raises(IncompleteRosterError):
            fitness(week_instance, Roster([0, None, 2]), EvalWeights())


class TestPenalizedCost:
    def test_feasible_roster_equals_preference_cost(self, week_instance):
        roster = Roster([0, 1, 2])
        assert penalized(week_instance, roster, EvalWeights()) == (
            preference_cost(week_instance, roster)
        )

    def test_single_nurse_cost_8_stays_8(self):
        demand = demand_rows([[1]] + [[0]] * 13)
        inst = make_instance([(0,)], [Nurse(0, 1, {0: 8})], demand)
        assert penalized(inst, Roster([0]), EvalWeights(w_demand=200)) == 8.0

    def test_shortfall_is_charged_at_w_demand(self):
        # demand on two uncoverable nights: shortfall 2, preference cost 10
        patterns = [(0,)]
        nurses = [Nurse(0, 1, {0: 10})]
        demand = demand_rows([[0]] * 7 + [[1], [1]] + [[0]] * 5)
        inst = make_instance(patterns, nurses, demand)
        assert penalized(inst, Roster([0]), EvalWeights(w_demand=200)) == 410.0

    def test_incomplete_roster_raises(self, week_instance):
        with pytest.raises(IncompleteRosterError):
            penalized(week_instance, Roster([None, 1, 2]), EvalWeights())

    @pytest.mark.parametrize("assignment", [[None, 1, 2], [0, None, None], [0, 1, None]])
    def test_a_state_on_an_incomplete_roster_raises_the_same_message(
        self, week_instance, assignment
    ):
        roster = Roster(assignment)
        with pytest.raises(IncompleteRosterError) as summed:
            preference_cost(week_instance, roster)
        state = compute_coverage(week_instance, roster)
        with pytest.raises(IncompleteRosterError) as with_state:
            penalized_cost(roster, EvalWeights(), state)
        assert str(with_state.value) == str(summed.value)
