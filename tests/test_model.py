import random

import pytest

from nrp.evaluate import _needed_masks
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import (
    N_PERIODS,
    IncompleteRosterError,
    InvalidRosterError,
    Nurse,
    Roster,
    ShiftPattern,
    compute_coverage,
    covers_grade,
    is_feasible,
    preference_cost,
)

from nrp.oracle import _bound_tables
from nrp.reconstruct import _shortfall_sums

from bruteforce import coverage_matrix, feasible_by_definition, qualified
from conftest import complete_roster, demand_rows, flat_demand, make_instance, pattern


class TestCoversGrade:
    def test_highest_grade_covers_all_bands(self):
        nurse = Nurse(0, 1, (0,), {0: 0})
        assert covers_grade(nurse, 3)

    def test_lowest_grade_covers_only_its_band(self):
        nurse = Nurse(0, 3, (0,), {0: 0})
        assert not covers_grade(nurse, 1)
        assert covers_grade(nurse, 3)

    def test_own_band(self):
        nurse = Nurse(0, 2, (0,), {0: 0})
        assert covers_grade(nurse, 2)

    def test_monotone_in_band(self):
        rng = random.Random(0)
        for _ in range(200):
            g = rng.randint(1, 5)
            nurse = Nurse(0, rng.randint(1, g), (0,), {0: 0})
            for s in range(1, g + 1):
                if covers_grade(nurse, s):
                    assert all(covers_grade(nurse, t) for t in range(s, g + 1))


class TestTypeInvariants:
    def test_pattern_needs_14_entries(self):
        with pytest.raises(ValueError, match="14"):
            ShiftPattern(0, (True,) * 13)

    def test_pattern_period_indices(self):
        p = pattern(0, 0, 7, 13)
        assert p.periods == (0, 7, 13)

    def test_nurse_rejects_empty_feasible(self):
        with pytest.raises(ValueError, match="empty"):
            Nurse(0, 1, (), {})

    def test_nurse_rejects_cost_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            Nurse(0, 1, (0, 1), {0: 5})

    def test_nurse_rejects_cost_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Nurse(0, 1, (0,), {0: 101})

    def test_demand_warns_on_non_cumulative_rows(self):
        rows = [[2, 1]] + [[0, 0]] * 13
        with pytest.warns(UserWarning, match="non-decreasing"):
            demand_rows(rows)

    def test_demand_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            demand_rows([[0, -1]] + [[0, 0]] * 13)

    def test_instance_rejects_dangling_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            make_instance(
                [pattern(0, 0)], [Nurse(0, 1, (5,), {5: 0})], flat_demand(1)
            )

    def test_instance_rejects_grade_above_g(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_instance(
                [pattern(0, 0)], [Nurse(0, 2, (0,), {0: 0})], flat_demand(1), g=1
            )


class TestComputeCoverage:
    def test_empty_roster_covers_nothing(self, week_instance):
        state = compute_coverage(week_instance, Roster.empty(week_instance.n))
        assert all(v == 0 for row in state.covered for v in row)
        assert tuple(tuple(row) for row in state.shortfall) == week_instance.demand.r

    def test_single_weekday_nurse_covers_all_bands(self):
        # one grade-1 nurse on Mon-Fri days, demand 1 everywhere, 3 bands
        inst = make_instance(
            [pattern(0, 0, 1, 2, 3, 4)],
            [Nurse(0, 1, (0,), {0: 0})],
            flat_demand(3, 1),
        )
        state = compute_coverage(inst, Roster([0]))
        for k in range(N_PERIODS):
            for s in range(3):
                if k < 5:
                    assert state.covered[k][s] == 1
                    assert state.shortfall[k][s] == 0
                else:
                    assert state.covered[k][s] == 0
                    assert state.shortfall[k][s] == 1

    def test_rejects_assignment_outside_feasible_set(self, week_instance):
        roster = Roster([1, None, None])  # pattern 1 is not feasible for nurse 0
        with pytest.raises(InvalidRosterError):
            compute_coverage(week_instance, roster)

    def test_matches_constraint_definition_on_random_rosters(self):
        rng = random.Random(7)
        for trial in range(40):
            inst = generate_instance(
                GeneratorParams(n=rng.randint(1, 6), m=8, g=rng.randint(1, 3), seed=trial)
            )
            roster = Roster(
                [rng.choice(nurse.feasible) for nurse in inst.nurses]
            )
            state = compute_coverage(inst, roster)
            assert state.covered == coverage_matrix(inst, roster)

    def test_incremental_updates_match_scratch_recompute(self):
        rng = random.Random(21)
        for trial in range(30):
            inst = generate_instance(GeneratorParams(n=6, m=10, g=3, seed=100 + trial))
            roster = Roster.empty(inst.n)
            state = compute_coverage(inst, roster)
            for _ in range(40):
                i = rng.randrange(inst.n)
                if roster.assignment[i] is None:
                    j = rng.choice(inst.nurses[i].feasible)
                    roster.assignment[i] = j
                    state.add(inst, i, j)
                else:
                    state.remove(inst, i, roster.assignment[i])
                    roster.assignment[i] = None
                fresh = compute_coverage(inst, roster)
                assert state.covered == fresh.covered
                assert state.shortfall == fresh.shortfall
                assert state.band_short == fresh.band_short

    def test_shortfall_always_consistent_with_covered(self):
        rng = random.Random(3)
        for trial in range(20):
            inst = generate_instance(GeneratorParams(n=5, m=8, g=2, seed=300 + trial))
            roster = Roster([rng.choice(n.feasible) for n in inst.nurses])
            state = compute_coverage(inst, roster)
            for k in range(N_PERIODS):
                for s in range(inst.g):
                    expected = max(inst.demand.r[k][s] - state.covered[k][s], 0)
                    assert state.shortfall[k][s] == expected


def random_packing_instance(rng: random.Random, trial: int):
    """A random instance with g = 1..4; every third one has demand above n."""
    n, m, g = rng.randint(1, 8), rng.randint(3, 12), 1 + trial % 4
    top = 2 * n + 3 if trial % 3 == 0 else n
    patterns = [
        pattern(j, *(k for k in range(N_PERIODS) if rng.random() < 0.4)) for j in range(m)
    ]
    nurses = []
    for i in range(n):
        feasible = tuple(rng.sample(range(m), rng.randint(1, m)))
        nurses.append(
            Nurse(i, rng.randint(1, g), feasible, {j: rng.randint(0, 100) for j in feasible})
        )
    demand = demand_rows(
        [sorted(rng.randint(0, top) for _ in range(g)) for _ in range(N_PERIODS)]
    )
    return make_instance(patterns, nurses, demand)


def guard_mask(instance, cells) -> int:
    """Guard bits, in the packed layout, of the periods in cells."""
    w = instance.field_width
    return sum(1 << (k * w + w - 1) for k in cells)


class TestPackedCoverage:
    """The packed coverage ints against the per-cell definitions they encode."""

    def check_state(self, instance, roster, state) -> None:
        covered = coverage_matrix(instance, roster)
        demand = instance.demand.r
        short = [
            [max(demand[k][s] - covered[k][s], 0) for s in range(instance.g)]
            for k in range(N_PERIODS)
        ]
        assert state.covered == covered
        assert state.shortfall == short
        w, guard_bits, low_bits = instance.field_width, instance.guard_bits, instance.low_bits
        periods = range(N_PERIODS)
        worst = max(map(max, demand))
        needed = _needed_masks(instance, state)
        for s in range(instance.g):
            column = [short[k][s] for k in periods]
            assert state.band_short[s] == sum(column)
            assert state.short_mask(s) == guard_mask(instance, [k for k in periods if column[k]])
            assert needed[s] == guard_mask(
                instance, [k for k in periods if covered[k][s] <= demand[k][s]]
            )
            packed = state.shortfall_bits(s)
            assert packed == sum(r << (k * w) for k, r in enumerate(column))
            for t in range(1, worst + 2):
                level = ((packed | guard_bits) - t * low_bits) & guard_bits
                assert level == guard_mask(instance, [k for k in periods if column[k] >= t])
            assert _shortfall_sums(instance, instance.pattern_bits, packed) == [
                sum(column[k] for k in p.periods) for p in instance.patterns
            ]

    def test_add_remove_sequences_match_the_definitions(self):
        rng = random.Random(61)
        above_n = 0
        for trial in range(60):
            inst = random_packing_instance(rng, trial)
            above_n += max(map(max, inst.demand.r)) > inst.n
            roster = Roster.empty(inst.n)
            state = compute_coverage(inst, roster)
            self.check_state(inst, roster, state)
            for _ in range(30):
                i = rng.randrange(inst.n)
                if roster.assignment[i] is None:
                    j = rng.choice(inst.nurses[i].feasible)
                    roster.assignment[i] = j
                    state.add(inst, i, j)
                else:
                    state.remove(inst, i, roster.assignment[i])
                    roster.assignment[i] = None
                self.check_state(inst, roster, state)
        assert above_n >= 10

    def test_oracle_cut_marks_cells_no_remaining_nurse_can_fill(self):
        rng = random.Random(67)
        cut_cells = forced_cells = 0
        for trial in range(60):
            inst = random_packing_instance(rng, trial)
            ordered = [
                sorted(nurse.feasible, key=lambda j, nurse=nurse: nurse.pref_cost[j])
                for nurse in inst.nurses
            ]
            _, cut, extra = _bound_tables(inst, ordered)
            for depth in range(inst.n):
                # the solver's coverage at depth d holds nurses 0..d-1 only
                roster = Roster(
                    [rng.choice(nurse.feasible) for nurse in inst.nurses[:depth]]
                    + [None] * (inst.n - depth)
                )
                state = compute_coverage(inst, roster)
                short = state.shortfall
                for s in range(inst.g):
                    can = [
                        [i for i in range(depth, inst.n) if qualified(inst, i, s + 1)
                         and any(inst.patterns[j].mask[k] for j in inst.nurses[i].feasible)]
                        for k in range(N_PERIODS)
                    ]
                    hopeless = [k for k in range(N_PERIODS) if short[k][s] > len(can[k])]
                    assert (cut[depth][s] - state.cov[s]) & inst.guard_bits == (
                        guard_mask(inst, hopeless)
                    )
                    forced = {}
                    for k in range(N_PERIODS):
                        extras = [
                            min(nurse.pref_cost[j] for j in nurse.feasible
                                if inst.patterns[j].mask[k])
                            - min(nurse.pref_cost.values())
                            for nurse in (inst.nurses[i] for i in can[k])
                        ]
                        if extras and min(extras) > 0:
                            forced[k] = min(extras)
                    costs = [cost for cost, _ in extra[depth][s]]
                    assert costs == sorted(set(forced.values()), reverse=True)
                    for cost, cells in extra[depth][s]:
                        assert cells == guard_mask(inst, [k for k in forced if forced[k] == cost])
                    cut_cells += len(hopeless)
                    forced_cells += len(forced)
        assert cut_cells > 100 and forced_cells > 100


class TestIsFeasible:
    def test_empty_roster_with_demand_is_infeasible(self, week_instance):
        assert not is_feasible(week_instance, Roster.empty(week_instance.n))

    def test_complete_roster_meeting_demand(self, week_instance):
        assert is_feasible(week_instance, complete_roster(week_instance, [0, 1, 2]))

    def test_zero_shortfall_iff_feasible_on_random_rosters(self):
        rng = random.Random(11)
        for trial in range(40):
            inst = generate_instance(
                GeneratorParams(n=rng.randint(2, 6), m=8, g=2, seed=500 + trial)
            )
            roster = Roster([rng.choice(n.feasible) for n in inst.nurses])
            ours = is_feasible(inst, roster)
            assert ours == feasible_by_definition(inst, roster)
            total = compute_coverage(inst, roster).total_shortfall()
            assert ours == (total == 0)


class TestPreferenceCost:
    def test_all_zero_costs(self):
        inst = make_instance(
            [pattern(0, 0)], [Nurse(0, 1, (0,), {0: 0})], flat_demand(1)
        )
        assert preference_cost(inst, Roster([0])) == 0

    def test_single_nurse_cost(self):
        inst = make_instance(
            [pattern(0, 0)], [Nurse(0, 1, (0,), {0: 8})], flat_demand(1)
        )
        assert preference_cost(inst, Roster([0])) == 8

    def test_sums_over_assignments(self, week_instance):
        assert preference_cost(week_instance, complete_roster(week_instance, [0, 1, 2])) == 10

    def test_incomplete_roster_raises(self, week_instance):
        with pytest.raises(IncompleteRosterError):
            preference_cost(week_instance, Roster([0, None, 2]))
