import random
import re
import warnings
from dataclasses import replace

import pytest

from nrp.instance_io import GeneratorParams, generate_instance, parse_instance, serialize_instance
from nrp.model import (
    N_PERIODS,
    IncompleteRosterError,
    Instance,
    InvalidRosterError,
    Nurse,
    Roster,
    compute_coverage,
    is_feasible,
    preference_cost,
)

from nrp.oracle import OPTIMAL, _components, _tables, exact_solve
from nrp.reconstruct import ReconstructionConfig, _band_terms, _focus_mask
from nrp.solver import SolverConfig, run

from bruteforce import (
    coverage_matrix,
    feasible_by_definition,
    qualified,
    residual_by_definition,
    shortfall_matrix,
)
from conftest import (
    complete_roster,
    demand_rows,
    field_maximum_instance,
    flat_demand,
    make_instance,
)


def band_copies(instance, bits: int, bands) -> int:
    """bits, laid in band 1's position, copied into each band s+1 for s in bands."""
    return sum(bits << (s * instance.band_span) for s in bands)


class TestCoversGrade:
    """A grade-q nurse covers bands q..g: her row of nurse_cells has her
    pattern there only."""

    def test_highest_grade_covers_all_bands(self):
        inst = make_instance([(0, 3)], [Nurse(0, 1, {0: 0})], flat_demand(3))
        assert inst.nurse_cells[0][0] == band_copies(inst, 1 | 1 << 3 * inst.field_width, range(3))

    def test_lowest_grade_covers_only_its_band(self):
        inst = make_instance([(0,)], [Nurse(0, 3, {0: 0})], flat_demand(3))
        assert inst.nurse_cells[0][0] == band_copies(inst, 1, [2])

    def test_own_band(self):
        inst = make_instance([(5,)], [Nurse(0, 2, {0: 0})], flat_demand(3))
        own = (inst.nurse_cells[0][0] >> inst.band_span) & ((1 << inst.band_span) - 1)
        assert own == 1 << 5 * inst.field_width

    def test_monotone_in_band(self):
        rng = random.Random(0)
        for trial in range(60):
            inst = random_packing_instance(rng, trial)
            band, bands = (1 << inst.band_span) - 1, range(inst.g)
            for i, nurse in enumerate(inst.nurses):
                for j in nurse.feasible:
                    cells = sum(1 << (k * inst.field_width) for k in inst.patterns[j])
                    row = inst.nurse_cells[i][j]
                    slices = [(row >> (s * inst.band_span)) & band for s in bands]
                    assert slices == [cells if qualified(inst, i, s + 1) else 0 for s in bands]
                    present = [s for s in bands if slices[s]]  # a run of bands ending at g
                    assert present == list(range(inst.g - len(present), inst.g))


class TestTypeInvariants:
    @pytest.mark.parametrize("periods", [
        pytest.param((3, 14), id="past-the-week"),
        pytest.param((-1, 3), id="negative"),
        pytest.param((5, 2), id="out-of-order"),
        pytest.param((2, 2, 9), id="repeated"),
        pytest.param([2, 9], id="a-list"),
    ])
    def test_instance_rejects_a_bad_period_tuple(self, periods):
        with pytest.raises(ValueError, match=r"pattern 1: .* ascending tuple of distinct periods"):
            make_instance([(0,), periods], [Nurse(0, 1, {0: 0})], flat_demand(1))

    def test_pattern_period_indices(self):
        # the first period, a night and the last all land in their own field
        inst = make_instance([(0, 7, 13), ()], [Nurse(0, 1, {0: 0, 1: 0})], flat_demand(1))
        w = inst.field_width
        assert inst.patterns == [(0, 7, 13), ()]
        assert inst.pattern_bits == (((1 << 0) | (1 << 7 * w) | (1 << 13 * w)) << (w - 1), 0)

    def test_nurse_rejects_empty_feasible(self):
        with pytest.raises(ValueError, match="empty"):
            Nurse(0, 1, {})

    def test_nurse_feasible_is_the_cost_maps_keys_in_their_order(self):
        nurse = Nurse(0, 1, {2: 5, 0: 0, 1: 5})
        assert nurse.feasible == (2, 0, 1)
        # equal maps in another order are another tie order, so another nurse
        assert nurse != Nurse(0, 1, {0: 0, 1: 5, 2: 5})

    def test_nurse_rejects_cost_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Nurse(0, 1, {0: 101})

    def test_instance_takes_non_cumulative_rows_without_a_warning(self):
        # the parser warns about the file's row; a rebuilt instance stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = demand_rows([[2, 1]] + [[0, 0]] * 13)
            instance = make_instance([(0,)], [Nurse(0, 1, {0: 0})], rows)
            assert replace(instance, known_optimal=0).demand == rows

    def test_demand_rejects_negative(self):
        with pytest.raises(ValueError, match="demand row 0: negative entry"):
            make_instance(
                [(0,)], [Nurse(0, 1, {0: 0})], demand_rows([[0, -1]] + [[0, 0]] * 13)
            )

    # the parser rejects these shapes before it builds an Instance
    @pytest.mark.parametrize("rows, message", [
        ([[0]] * 13, "must have 14 rows"),
        ([[0]] * 15, "must have 14 rows"),
        ([[]] * 14, "at least one grade column"),
        ([[0, 0]] + [[0]] * 13, "demand row 1: expected 2 entries"),
        ([[0]] * 13 + [[0, 0]], "demand row 13: expected 1 entries"),
    ])
    def test_demand_rejects_a_wrong_shape(self, rows, message):
        with pytest.raises(ValueError, match=message):
            make_instance([(0,)], [Nurse(0, 1, {0: 0})], demand_rows(rows))

    def test_instance_rejects_dangling_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            make_instance(
                [(0,)], [Nurse(0, 1, {5: 0})], flat_demand(1)
            )

    def test_instance_counts_n_m_and_g_from_its_lists(self, week_instance):
        assert (week_instance.n, week_instance.m, week_instance.g) == (3, 4, 2)
        generated = generate_instance(GeneratorParams(n=5, m=9, g=4, seed=2))
        assert (generated.n, generated.m, generated.g) == (5, 9, 4)

    @pytest.mark.parametrize(
        "patterns, nurses", [([], [Nurse(0, 1, {0: 0})]), ([(0,)], [])]
    )
    def test_instance_rejects_an_empty_list(self, patterns, nurses):
        with pytest.raises(ValueError, match="at least one pattern and one nurse"):
            make_instance(patterns, nurses, flat_demand(1))

    def test_instance_rejects_grade_above_g(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_instance(
                [(0,)], [Nurse(0, 2, {0: 0})], flat_demand(1)
            )


class TestRosterCopy:
    @pytest.mark.parametrize("assignment", [[], [0, None, 2], [None, None], [3, 1]])
    def test_copy_is_an_equal_roster_with_its_own_list(self, assignment):
        roster = Roster(assignment)
        copied = roster.copy()
        assert type(copied) is Roster and copied == roster and copied is not roster
        assert copied.assignment is not roster.assignment
        assert not hasattr(copied, "__dict__")
        copied.assignment.append(0)
        assert roster.assignment == assignment and len(copied.assignment) == len(assignment) + 1


class TestComputeCoverage:
    def test_empty_roster_covers_nothing(self, week_instance):
        empty = Roster.empty(week_instance.n)
        state = compute_coverage(week_instance, empty)
        assert state.rest == residual_by_definition(week_instance, empty)
        assert state.total_shortfall() == sum(map(sum, week_instance.demand))

    def test_single_weekday_nurse_covers_all_bands(self):
        # one grade-1 nurse on Mon-Fri days, demand 1 everywhere, 3 bands
        inst = make_instance(
            [(0, 1, 2, 3, 4)],
            [Nurse(0, 1, {0: 0})],
            flat_demand(3, 1),
        )
        state = compute_coverage(inst, Roster([0]))
        # field (k, s) holds 2**(w-1) + demand - 1 - covered: covered 1 on weekdays
        w, span = inst.field_width, inst.band_span
        assert state.rest == sum(
            ((1 << (w - 1)) - (k < 5)) << (s * span + k * w)
            for k in range(N_PERIODS) for s in range(3)
        )
        assert state.rest == residual_by_definition(inst, Roster([0]))
        assert state.total_shortfall() == 3 * (N_PERIODS - 5)

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
            assert state.rest == residual_by_definition(inst, roster)

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
                    state.add(i, j)
                else:
                    state.remove(i, roster.assignment[i])
                    roster.assignment[i] = None
                state.check(roster)
                fresh = compute_coverage(inst, roster)
                assert state.total_shortfall() == fresh.total_shortfall()

    def test_shortfall_always_consistent_with_covered(self):
        rng = random.Random(3)
        for trial in range(20):
            inst = generate_instance(GeneratorParams(n=5, m=8, g=2, seed=300 + trial))
            roster = Roster([rng.choice(n.feasible) for n in inst.nurses])
            state = compute_coverage(inst, roster)
            assert state.rest == residual_by_definition(inst, roster)
            short = shortfall_matrix(inst, roster)
            w, span = inst.field_width, inst.band_span
            assert state.shortfall_bits() == sum(
                short[k][s] << (s * span + k * w) for k in range(N_PERIODS) for s in range(inst.g)
            )


class TestRosterLength:
    """A roster holds one entry per nurse; any other length is rejected."""

    def optimum(self):
        inst = generate_instance(GeneratorParams(n=6, m=12, g=3, seed=0, tightness=0.3))
        result = exact_solve(inst)
        assert result.status == OPTIMAL and result.optimal_cost == 132
        return inst, result.optimal_roster.assignment

    def test_a_roster_one_nurse_short_is_rejected(self):
        inst, best = self.optimum()
        short = Roster(best[:-1])  # it would cost 127, below the optimum
        incomplete = Roster(best[:-2] + [None])
        for roster in (short, incomplete):
            for call in (compute_coverage, is_feasible, preference_cost):
                with pytest.raises(InvalidRosterError, match="5 roster entries for 6 nurses"):
                    call(inst, roster)

    def test_a_roster_one_entry_long_is_rejected(self):
        inst, best = self.optimum()
        long = Roster(best + [best[0]])
        for roster in (long, Roster([None] * 7)):
            for call in (compute_coverage, is_feasible, preference_cost):
                with pytest.raises(InvalidRosterError, match="7 roster entries for 6 nurses"):
                    call(inst, roster)
        state = compute_coverage(inst, Roster(best))
        with pytest.raises(ValueError):  # as check's docstring promises
            state.check(long)


def random_packing_instance(rng: random.Random, trial: int, sparse: bool = False):
    """A random instance with g = 1..4; every third one has demand above n.

    sparse zeroes each demand draw with probability 2/3; sorted into the
    cumulative rows, the zeros leave low bands with no demand at all.
    """
    n, m, g = rng.randint(1, 8), rng.randint(3, 12), 1 + trial % 4
    top = 2 * n + 3 if trial % 3 == 0 else n
    patterns = [
        tuple(k for k in range(N_PERIODS) if rng.random() < 0.4) for j in range(m)
    ]
    nurses = []
    for i in range(n):
        feasible = tuple(rng.sample(range(m), rng.randint(1, m)))
        nurses.append(
            Nurse(i, rng.randint(1, g), {j: rng.randint(0, 100) for j in feasible})
        )

    def draw() -> int:
        value = rng.randint(0, top)
        return 0 if sparse and rng.random() < 2 / 3 else value

    demand = demand_rows([sorted(draw() for _ in range(g)) for _ in range(N_PERIODS)])
    return make_instance(patterns, nurses, demand)


def guard_mask(instance, cells) -> int:
    """Guard bits, in the packed layout, of the cells (period k, band s+1) given as (k, s)."""
    w = instance.field_width
    return sum(1 << (s * instance.band_span + k * w + w - 1) for k, s in cells)


def random_sequences(rng: random.Random, sparse: bool = False):
    """Seeded add/remove sequences; yields (instance, roster, state) after every step."""
    for trial in range(60):
        inst = random_packing_instance(rng, trial, sparse)
        roster = Roster.empty(inst.n)
        state = compute_coverage(inst, roster)
        yield inst, roster, state
        for _ in range(30):
            i = rng.randrange(inst.n)
            if roster.assignment[i] is None:
                j = rng.choice(inst.nurses[i].feasible)
                roster.assignment[i] = j
                state.add(i, j)
            else:
                state.remove(i, roster.assignment[i])
                roster.assignment[i] = None
            yield inst, roster, state


class TestPackedCoverage:
    """The packed coverage int against the per-cell definitions it encodes."""

    def check_state(self, instance, roster, state) -> None:
        covered = coverage_matrix(instance, roster)
        demand = instance.demand
        short = [
            [max(demand[k][s] - covered[k][s], 0) for s in range(instance.g)]
            for k in range(N_PERIODS)
        ]
        assert state.rest == residual_by_definition(instance, roster)
        assigned = [(i, j) for i, j in enumerate(roster.assignment) if j is not None]
        for i, j in assigned:
            assert state.costs[i] == instance.nurses[i].pref_cost[j]
        assert state.cost == sum(state.costs[i] for i, _ in assigned)
        if roster.is_complete():
            assert state.cost == preference_cost(instance, roster)
        state.check(roster)
        w, span = instance.field_width, instance.band_span
        guard_bits, low_bits = instance.guard_bits, instance.low_bits
        cells = [(k, s) for s in range(instance.g) for k in range(N_PERIODS)]
        worst = max(map(max, demand))
        # the state keeps the residual demand - ONE - covered, guard bits set
        packed_covered = sum(covered[k][s] << (s * span + k * w) for k, s in cells)
        assert state.rest == instance.demand_bits - low_bits - packed_covered
        assert state.short_mask() == state.rest & guard_bits
        assert state.total_shortfall() == sum(map(sum, short))
        short_cells = [(k, s) for k, s in cells if short[k][s]]
        assert state.short_mask() == guard_mask(instance, short_cells)
        assert state.needed_mask() == guard_mask(
            instance, [(k, s) for k, s in cells if covered[k][s] <= demand[k][s]]
        )
        packed = state.shortfall_bits()
        assert packed == sum(short[k][s] << (s * span + k * w) for k, s in cells)
        for t in range(1, worst + 2):
            level = ((packed | guard_bits) - t * low_bits) & guard_bits
            assert level == guard_mask(instance, [(k, s) for k, s in cells if short[k][s] >= t])
        # a grade-g nurse serves one band, so the column is her band state
        unit_weight = ReconstructionConfig(w_grade=(1.0,), e_mode="shortfall")
        for s in range(instance.g):
            column = (packed >> (s * span)) & ((1 << span) - 1)
            terms = _band_terms(instance, unit_weight, instance.g, N_PERIODS, column)
            levels = terms[0][1] if terms else ()
            assert [sum((bits & cells).bit_count() for cells in levels)
                    for bits in instance.pattern_bits] == [
                sum(short[k][s] for k in periods) for periods in instance.patterns
            ]
            # at a limit of all 14 periods nothing is capped, so the cap is
            # the count of a pattern working every period
            band_total = sum(short[k][s] for k in range(N_PERIODS))
            assert [cap for _, _, cap in terms] == ([band_total] if band_total else [])
            # a nurse whose longest pattern works `longest` periods counts at
            # most that many cells of level t, the cells short by at least t
            for longest in range(N_PERIODS):
                capped = _band_terms(instance, unit_weight, instance.g, longest, column)
                assert [cap for _, _, cap in capped] == ([sum(
                    min(sum(short[k][s] >= t for k in range(N_PERIODS)), longest)
                    for t in range(1, worst + 1)
                )] if band_total else [])

    def test_add_remove_sequences_match_the_definitions(self):
        above_n = steps = 0
        for inst, roster, state in random_sequences(random.Random(61)):
            steps += 1
            above_n += max(map(max, inst.demand)) > inst.n
            self.check_state(inst, roster, state)
        assert steps == 60 * 31 and above_n >= 10 * 31

    def test_total_shortfall_up_to_the_field_maximum(self):
        """g = 1-6, each instance with one cell demanding the field maximum
        2**(w-1) - 1: while it is uncovered, total_shortfall reads levels up
        to t = 2**(w-1), the last one the width rule keeps from borrowing."""
        rng = random.Random(83)
        planes = set()
        for trial in range(36):
            inst = field_maximum_instance(rng, 1 + trial % 6)
            planes.add(inst.field_width - 1)
            roster = Roster.empty(inst.n)
            state = compute_coverage(inst, roster)
            self.check_state(inst, roster, state)
            for _ in range(20):
                i = rng.randrange(inst.n)
                if roster.assignment[i] is None:
                    roster.assignment[i] = rng.choice(inst.nurses[i].feasible)
                    state.add(i, roster.assignment[i])
                else:
                    state.remove(i, roster.assignment[i])
                    roster.assignment[i] = None
                self.check_state(inst, roster, state)
        assert planes == {1, 2, 3, 4}

    def test_focus_mask_is_the_first_short_band_the_nurse_serves(self):
        focused = unfocused = 0
        for inst, roster, state in random_sequences(random.Random(71), sparse=True):
            short = shortfall_matrix(inst, roster)
            for nurse in inst.nurses:
                served = [
                    s for s in range(nurse.grade - 1, inst.g)
                    if any(short[k][s] for k in range(N_PERIODS))
                ]
                if served:  # as guard bits of band 1, where the pattern bits sit
                    s = served[0]
                    expected = guard_mask(inst, [(k, 0) for k in range(N_PERIODS) if short[k][s]])
                    focused += s > nurse.grade - 1
                else:
                    expected = 0
                    unfocused += 1
                assert _focus_mask(inst, state, nurse) == expected
        assert focused > 500 and unfocused > 10

    def test_oracle_cut_marks_cells_no_remaining_nurse_can_fill(self):
        """Checked on the whole instance and on each component against its
        own demand, both in the solver's own order, which leaves the
        dominated patterns out.  The random instances here each form one
        component; generated ones split in two.  The residual is carried as
        the search carries it, from top down by each placed pattern's
        cells, and each field of avail[d] is the count of nurses ids[d:] who
        can work the cell."""
        rng, component_rng = random.Random(67), random.Random(68)
        cut_cells = forced_cells = split = 0
        for trial in range(90):
            if trial < 60:
                inst = random_packing_instance(rng, trial)
            else:
                inst = generate_instance(GeneratorParams(
                    n=2 + trial % 7, m=12, g=1 + trial % 4, feasible_min=2, feasible_max=5,
                    seed=6700 + trial,
                ))
            # (rng, nurse ids, top, the cells whose demand top keeps)
            parts = [(rng, list(range(inst.n)), inst.demand_bits - inst.low_bits,
                      {(k, s) for k in range(N_PERIODS) for s in range(inst.g)})]
            components, _ = _components(inst)
            split += len(components) > 1
            for ids, top in components:
                workable = {
                    (k, s) for i in ids for s in range(inst.g) for k in range(N_PERIODS)
                    if qualified(inst, i, s + 1)
                    and any(k in inst.patterns[j] for j in inst.nurses[i].feasible)
                }
                parts.append((component_rng, ids, top, workable))
            for draw, ids, top, kept in parts:
                _, _, avail, extra = _tables(inst, ids)
                assert len(avail) == len(ids) + 1 and avail[len(ids)] == 0
                for depth in range(len(ids)):
                    # the solver's residual at depth d holds nurses ids[:d] only
                    roster, rest = Roster.empty(inst.n), top
                    for i in ids[:depth]:
                        roster.assignment[i] = j = draw.choice(inst.nurses[i].feasible)
                        rest -= inst.nurse_cells[i][j]
                    state = compute_coverage(inst, roster)
                    if top == inst.demand_bits - inst.low_bits:  # the empty roster's rest
                        assert rest == state.rest
                    short = shortfall_matrix(inst, roster)
                    hopeless, forced, counts = [], {}, 0
                    for s in range(inst.g):
                        can = [
                            [i for i in ids[depth:] if qualified(inst, i, s + 1)
                             and any(k in inst.patterns[j] for j in inst.nurses[i].feasible)]
                            for k in range(N_PERIODS)
                        ]
                        counts += sum(
                            len(can[k]) << (s * inst.band_span + k * inst.field_width)
                            for k in range(N_PERIODS)
                        )
                        hopeless += [(k, s) for k in range(N_PERIODS)
                                     if (k, s) in kept and short[k][s] > len(can[k])]
                        for k in range(N_PERIODS):
                            extras = [
                                min(nurse.pref_cost[j] for j in nurse.feasible
                                    if k in inst.patterns[j])
                                - min(nurse.pref_cost.values())
                                for nurse in (inst.nurses[i] for i in can[k])
                            ]
                            if extras and min(extras) > 0:
                                forced[k, s] = min(extras)
                    assert avail[depth] == counts
                    assert (rest - avail[depth]) & inst.guard_bits == guard_mask(inst, hopeless)
                    # one list per depth merges every band's extras, highest cost first
                    costs = [cost for cost, _ in extra[depth]]
                    assert costs == sorted(set(forced.values()), reverse=True)
                    for cost, cells in extra[depth]:
                        assert cells == guard_mask(inst, [c for c in forced if forced[c] == cost])
                    cut_cells += len(hopeless)
                    forced_cells += len(forced)
        assert cut_cells > 100 and forced_cells > 100 and split > 20


def generated_sequences(rng: random.Random):
    """Random add/remove sequences on generated instances at g = 1-6; yields
    (instance, roster, state) after every step."""
    for trial in range(36):
        inst = generate_instance(GeneratorParams(
            n=rng.randint(1, 9), m=rng.randint(2, 16), g=1 + trial % 6,
            feasible_min=1, feasible_max=rng.randint(1, 8), seed=8300 + trial,
        ))
        roster = Roster.empty(inst.n)
        state = compute_coverage(inst, roster)
        for _ in range(40):
            i = rng.randrange(inst.n)
            if roster.assignment[i] is None:
                roster.assignment[i] = rng.choice(inst.nurses[i].feasible)
                state.add(i, roster.assignment[i])
            else:
                state.remove(i, roster.assignment[i])
                roster.assignment[i] = None
            yield inst, roster, state


class TestKeptCosts:
    """CoverageState keeps each assigned nurse's cost and their sum."""

    def test_sequences_keep_the_sum_of_the_assigned_costs(self):
        grades, complete = set(), 0
        for inst, roster, state in generated_sequences(random.Random(97)):
            grades.add(inst.g)
            assigned = [(i, j) for i, j in enumerate(roster.assignment) if j is not None]
            assert state.cost == sum(inst.nurses[i].pref_cost[j] for i, j in assigned)
            for i, j in assigned:
                assert state.costs[i] == inst.nurses[i].pref_cost[j]
            if roster.is_complete():
                complete += 1
                assert state.cost == preference_cost(inst, roster)
            state.check(roster)
        assert grades == set(range(1, 7)) and complete > 50

    def test_an_infeasible_add_raises_and_changes_nothing(self):
        tried = 0
        for inst, roster, state in generated_sequences(random.Random(98)):
            i = next((i for i, j in enumerate(roster.assignment) if j is None), None)
            outside = set(range(inst.m)) - set(inst.nurses[i].feasible) if i is not None else ()
            if not outside:
                continue
            before = (state.rest, state.cost, list(state.costs))
            with pytest.raises(InvalidRosterError):
                state.add(i, min(outside))
            assert (state.rest, state.cost, state.costs) == before
            state.check(roster)
            tried += 1
        assert tried > 300

    def test_check_names_the_first_field_that_differs(self, week_instance):
        roster = complete_roster(week_instance, [0, 1, 2])
        state = compute_coverage(week_instance, roster)
        state.check(roster)
        state.cost += 1
        with pytest.raises(ValueError, match="^cost is 11, but the roster costs 10$"):
            state.check(roster)
        state.costs[1] += 1
        with pytest.raises(ValueError, match=r"^costs\[1\] is"):
            state.check(roster)
        state.rest += week_instance.low_bits
        with pytest.raises(ValueError, match="^rest differs"):
            state.check(roster)
        # the stale entry of an unassigned nurse is not compared
        state = compute_coverage(week_instance, roster)
        state.remove(1, 1)
        roster.assignment[1] = None
        state.check(roster)


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
            [(0,)], [Nurse(0, 1, {0: 0})], flat_demand(1)
        )
        assert preference_cost(inst, Roster([0])) == 0

    def test_single_nurse_cost(self):
        inst = make_instance(
            [(0,)], [Nurse(0, 1, {0: 8})], flat_demand(1)
        )
        assert preference_cost(inst, Roster([0])) == 8

    def test_sums_over_assignments(self, week_instance):
        assert preference_cost(week_instance, complete_roster(week_instance, [0, 1, 2])) == 10

    def test_incomplete_roster_raises(self, week_instance):
        with pytest.raises(IncompleteRosterError):
            preference_cost(week_instance, Roster([0, None, 2]))

    def test_pattern_outside_the_feasible_set_raises_as_add_does(self, week_instance):
        roster = Roster([0, 0, 2])  # pattern 0 is not feasible for nurse 1
        message = "nurse 1 assigned pattern 0 outside A(i)"
        for call in (preference_cost, compute_coverage, is_feasible):
            with pytest.raises(InvalidRosterError, match=re.escape(message)):
                call(week_instance, roster)


TABLES = ("supersets", "cover_scan", "combined_scan", "reach", "longest")


def count_table_builds(monkeypatch) -> dict[str, int]:
    """Count the builds of supersets, reach and longest, and the one pass
    that builds both scan lists, by wrapping each builder."""
    builds = dict.fromkeys(("supersets", "_scan_lists", "reach", "longest"), 0)

    def counting(build, name):
        def counted(self):
            builds[name] += 1
            return build(self)
        return counted

    for name in ("supersets", "reach", "longest"):
        table = Instance.__dict__[name]
        wrapped = type(table)(counting(table.func, name))
        wrapped.__set_name__(Instance, name)
        monkeypatch.setattr(Instance, name, wrapped)
    monkeypatch.setattr(Instance, "_scan_lists", counting(Instance._scan_lists, "_scan_lists"))
    return builds


class TestSearchTables:
    """The five search tables are built on first read, once per instance."""

    PARAMS = GeneratorParams(n=8, m=16, g=3, feasible_min=3, feasible_max=8, seed=7)

    def test_an_instance_that_is_only_serialized_or_copied_holds_no_table(self):
        inst = generate_instance(self.PARAMS)
        text = serialize_instance(inst)
        copies = [replace(inst, known_optimal=100), parse_instance(text)]
        serialize_instance(copies[0])
        for each in [inst] + copies:
            assert not set(TABLES) & set(vars(each))

    def test_a_copy_builds_its_own_tables_equal_to_the_originals(self):
        inst = generate_instance(self.PARAMS)
        tables = {name: getattr(inst, name) for name in TABLES}
        copy = replace(inst, known_optimal=100)
        assert not set(TABLES) & set(vars(copy))
        assert {name: getattr(copy, name) for name in TABLES} == tables

    def test_a_run_builds_each_table_once_and_a_second_run_reads_the_same(self, monkeypatch):
        builds = count_table_builds(monkeypatch)
        inst = generate_instance(self.PARAMS)
        run(inst, SolverConfig(max_iterations=100, seed=1))
        assert builds == dict.fromkeys(builds, 1)
        first = {name: vars(inst)[name] for name in TABLES}  # all five were read
        run(inst, SolverConfig(max_iterations=100, seed=2))
        assert builds == dict.fromkeys(builds, 1)
        assert all(vars(inst)[name] is table for name, table in first.items())

    def test_a_proof_builds_the_tables_it_reads_once(self, monkeypatch):
        builds = count_table_builds(monkeypatch)
        inst = generate_instance(self.PARAMS)
        assert exact_solve(inst).status == OPTIMAL
        # longest serves reconstruction only
        read = {name: 0 if name == "longest" else 1 for name in builds}
        assert builds == read
        first = {name: vars(inst)[name] for name in TABLES if name != "longest"}
        exact_solve(inst)
        assert builds == read
        assert all(vars(inst)[name] is table for name, table in first.items())
