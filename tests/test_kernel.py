"""Seeded equivalence of the bitmask scoring kernel with its definitions.

The reconstruction rules score patterns as popcounts of packed masks.  Here
every argmax is compared with a first-index argmax over the per-period
reference scores of tests/bruteforce.py, on random partial rosters with one
to three grade bands, in both e-modes and under non-integer weights; and
with one to five bands under fewer band weights than bands, where the last
weight covers the bands past the list.  The masks themselves are checked
against the shortfall matrix recomputed from the roster, and each nurse's
scan lists (the feasible patterns the argmax scans) against a pairwise
filter, the combined list in its (cost, feasible position) order.  Each
nurse's reach is checked against her whole feasible list, and the masks kept
to it, as the pick memo keys them, against the unmasked ones.  The scans'
early stops, capped by each nurse's longest pattern, are checked on
hand-built ties and stops and, over random states, empty rosters and
weights that overflow to inf, against the first argmax of the whole list.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import nrp.reconstruct as reconstruct_module
from nrp.evaluate import EvalWeights
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import N_PERIODS, Nurse, Roster, compute_coverage
from nrp.reconstruct import (
    E_MODES,
    PickMemo,
    ReconstructionConfig,
    _argmax_combined,
    _argmax_cover,
    _band_state,
    _band_terms,
    _focus_mask,
    _scan_combined,
    combined_score,
)

from bruteforce import (
    combined_score_by_definition,
    cover_value_by_definition,
    scan_lists_by_definition,
    shortfall_matrix,
)
from conftest import count_rows_scored, demand_rows, make_instance, pattern, repair

TRIALS = 150


def random_state(rng: random.Random, trial: int, g: int | None = None):
    """A generated instance plus a random partial roster over it."""
    g = 1 + trial % 3 if g is None else g
    instance = generate_instance(
        GeneratorParams(
            n=rng.randint(2, 8),
            m=rng.randint(4, 30),
            g=g,
            feasible_min=1,
            feasible_max=rng.randint(1, 12),
            tightness=rng.uniform(0.3, 1.0),
            seed=5000 + trial,
        )
    )
    keep = rng.random()
    roster = Roster(
        [
            rng.choice(nurse.feasible) if rng.random() < keep else None
            for nurse in instance.nurses
        ]
    )
    return instance, roster


def random_weights(rng: random.Random, g: int) -> EvalWeights:
    w_grade = tuple(
        0.0 if rng.random() < 0.2 else round(rng.uniform(0.05, 9.0), 3) for _ in range(g)
    )
    return EvalWeights(w_p=round(rng.uniform(0.0, 2.5), 3), w_grade=w_grade)


def first_argmax(feasible, score) -> int:
    best_j, best = feasible[0], score(feasible[0])
    for j in feasible[1:]:
        value = score(j)
        if value > best:
            best_j, best = j, value
    return best_j


def low_bit(instance, k: int, s: int = 0) -> int:
    """The low bit of cell (period k, band s+1)'s field in the packed layout."""
    return 1 << (s * instance.band_span + k * instance.field_width)


def guard_bit(instance, k: int, s: int = 0) -> int:
    """The guard (top) bit of cell (period k, band s+1)'s field in the packed layout."""
    return low_bit(instance, k, s) << (instance.field_width - 1)


def test_pattern_bits_match_mask():
    rng = random.Random(41)
    for trial in range(TRIALS):
        instance, _ = random_state(rng, trial)
        band = (1 << instance.band_span) - 1
        for pattern in instance.patterns:
            expected = sum(low_bit(instance, k) for k in range(N_PERIODS) if pattern.mask[k])
            for nurse, cells in zip(instance.nurses, instance.nurse_cells):
                # her own band, the lowest her row fills
                own = cells[pattern.id] >> (nurse.grade - 1) * instance.band_span
                assert own & band == expected
            assert instance.pattern_bits[pattern.id] == expected << (instance.field_width - 1)


def test_short_mask_matches_shortfall_matrix():
    rng = random.Random(43)
    for trial in range(TRIALS):
        instance, roster = random_state(rng, trial)
        coverage = compute_coverage(instance, roster)
        short = shortfall_matrix(instance, roster)
        expected = sum(
            guard_bit(instance, k, s)
            for s in range(instance.g)
            for k in range(N_PERIODS)
            if short[k][s] > 0
        )
        assert coverage.short_mask() == expected


def dropped_ties(feasible, kept, values) -> bool:
    """Whether a pattern left out of the scan list ties the maximum."""
    best = max(values)
    return any(j not in kept and value == best for j, value in zip(feasible, values))


def combined_rows_by_definition(instance, i: int) -> tuple:
    """Nurse i's combined list by pairwise comparison, as the rule's rows
    (cost, feasible position, id, pattern bits), sorted by (cost, position)."""
    nurse = instance.nurses[i]
    _, combined = scan_lists_by_definition(instance, i)
    order = sorted(combined, key=lambda j: (nurse.pref_cost[j], nurse.feasible.index(j)))
    return tuple(
        (nurse.pref_cost[j], nurse.feasible.index(j), j, instance.pattern_bits[j]) for j in order
    )


def combined_ids(instance, i: int) -> tuple[int, ...]:
    return tuple(j for _, _, j, _ in instance.combined_scan[i])


def test_scan_lists_match_pairwise_definition():
    rng = random.Random(59)
    dropped = [0, 0]
    for trial in range(TRIALS):
        instance, _ = random_state(rng, trial)
        for i, nurse in enumerate(instance.nurses):
            cover, combined = scan_lists_by_definition(instance, i)
            assert instance.cover_scan[i] == (cover, tuple(instance.pattern_bits[j] for j in cover))
            assert instance.combined_scan[i] == combined_rows_by_definition(instance, i)
            # the longest feasible pattern stays in both lists
            longest = max(len(instance.patterns[j].periods) for j in nurse.feasible)
            assert instance.longest[i] == longest
            assert max(bits.bit_count() for bits in instance.cover_scan[i][1]) == longest
            assert max(row[3].bit_count() for row in instance.combined_scan[i]) == longest
            dropped[0] += len(nurse.feasible) - len(cover)
            dropped[1] += len(nurse.feasible) - len(combined)
    assert dropped[0] > dropped[1] > 0  # both filters and the cost condition dropped some


def hand_scan_instance():
    """Duplicate masks at equal cost, a superset costing more, an empty pattern."""
    patterns = [
        pattern(0, 0, 1, 2),
        pattern(1, 0, 1, 2),  # the same periods as pattern 0
        pattern(2, 0, 1),
        pattern(3),  # works nothing, so every pattern is a superset of it
        pattern(4, 3),
    ]
    nurses = [
        Nurse(0, 1, {2: 10, 0: 20, 1: 20, 3: 5, 4: 30}),
        Nurse(1, 1, {0: 30, 2: 10, 1: 40}),
    ]
    demand = demand_rows([[2], [1], [2], [1]] + [[0]] * (N_PERIODS - 4))
    return make_instance(patterns, nurses, demand)


def test_scan_lists_on_hand_built_instance():
    instance = hand_scan_instance()
    assert [scan[0] for scan in instance.cover_scan] == [(2, 0, 4), (0,)]
    # the combined lists (2, 0, 3, 4) and (0, 2), cheapest first
    assert [combined_ids(instance, i) for i in range(instance.n)] == [(3, 2, 0, 4), (2, 0)]
    assert [[row[:2] for row in scan] for scan in instance.combined_scan] == [
        [(5, 3), (10, 0), (20, 1), (30, 4)], [(10, 1), (30, 0)]
    ]
    for i in range(instance.n):
        assert instance.cover_scan[i][0] == scan_lists_by_definition(instance, i)[0]
        assert instance.combined_scan[i] == combined_rows_by_definition(instance, i)
    # every partial roster, with w_p = 0 so that pattern 1 ties pattern 0 outright
    for weights in (EvalWeights(w_p=0.0, w_grade=(1.0,)), EvalWeights(w_p=0.5, w_grade=(2.0,))):
        for i, nurse in enumerate(instance.nurses):
            other = instance.nurses[1 - i]
            for assigned in (None, *other.feasible):
                roster = Roster([None, None])
                roster.assignment[1 - i] = assigned
                coverage = compute_coverage(instance, roster)
                expected = first_argmax(
                    nurse.feasible, lambda j: cover_value_by_definition(instance, roster, i, j)
                )
                short = _focus_mask(instance, coverage, nurse)
                assert _argmax_cover(instance, short, nurse) == expected
                for mode in E_MODES:
                    expected = first_argmax(
                        nurse.feasible,
                        lambda j: combined_score_by_definition(
                            instance, roster, weights.w_p, weights.w_grade, i, j, mode
                        ),
                    )
                    state = _band_state(instance, coverage, nurse, mode)
                    assert _argmax_combined(instance, weights, mode, nurse, state) == expected


def test_cover_argmax_matches_definition():
    rng = random.Random(47)
    ties = dropped = 0
    for trial in range(TRIALS):
        instance, roster = random_state(rng, trial)
        coverage = compute_coverage(instance, roster)
        for i in [i for i, j in enumerate(roster.assignment) if j is None]:
            nurse = instance.nurses[i]
            values = [
                cover_value_by_definition(instance, roster, i, j) for j in nurse.feasible
            ]
            ties += values.count(max(values)) > 1
            dropped += dropped_ties(nurse.feasible, instance.cover_scan[i][0], values)
            expected = first_argmax(
                nurse.feasible, lambda j: cover_value_by_definition(instance, roster, i, j)
            )
            short = _focus_mask(instance, coverage, nurse)
            assert _argmax_cover(instance, short, nurse) == expected
    assert ties > 50  # the tie-break to the first pattern was exercised
    assert dropped >= 10, dropped  # and a pattern left out of the scan tied the maximum


def test_combined_argmax_matches_definition_in_both_modes():
    rng = random.Random(53)
    dropped = dict.fromkeys(E_MODES, 0)
    for trial in range(TRIALS):
        instance, roster = random_state(rng, trial)
        coverage = compute_coverage(instance, roster)
        drawn = random_weights(rng, instance.g)
        # with w_p = 0 a dropped pattern ties its earlier superset whatever they cost
        for weights in (drawn, replace(drawn, w_p=0.0)):
            for i in [i for i, j in enumerate(roster.assignment) if j is None]:
                nurse = instance.nurses[i]
                for mode in E_MODES:

                    def by_definition(j):
                        return combined_score_by_definition(
                            instance, roster, weights.w_p, weights.w_grade, i, j, mode
                        )

                    for j in nurse.feasible:
                        # same float order, so bit-equal, not merely close
                        assert combined_score(instance, coverage, weights, i, j, mode) == (
                            by_definition(j)
                        )
                    values = [by_definition(j) for j in nurse.feasible]
                    dropped[mode] += dropped_ties(
                        nurse.feasible, combined_ids(instance, i), values
                    )
                    expected = first_argmax(nurse.feasible, by_definition)
                    state = _band_state(instance, coverage, nurse, mode)
                    assert _argmax_combined(instance, weights, mode, nurse, state) == expected
    # a pattern left out of the scan tied the maximum, in each mode
    assert min(dropped.values()) >= 10, dropped


def combined_repair_by_definition(instance, roster, weights, mode) -> list[int]:
    """The combined rule's repair: each freed nurse, ascending, takes the first
    argmax of the definition on the roster repaired so far."""
    out = roster.copy()
    for i in [i for i, j in enumerate(roster.assignment) if j is None]:
        out.assignment[i] = first_argmax(
            instance.nurses[i].feasible,
            lambda j: combined_score_by_definition(
                instance, out, weights.w_p, weights.w_grade, i, j, mode
            ),
        )
    return out.assignment


def test_band_weights_past_the_list_match_definition():
    rng = random.Random(61)
    changed = 0  # picks that reading weight 0 past the list would change
    for trial in range(TRIALS):
        g = 1 + trial % 5
        instance, roster = random_state(rng, trial, g)
        weights = random_weights(rng, rng.randint(1, g))
        zero_past = replace(weights, w_grade=weights.w_grade + (0.0,) * (g - len(weights.w_grade)))
        coverage = compute_coverage(instance, roster)
        for mode in E_MODES:
            for i in [i for i, j in enumerate(roster.assignment) if j is None]:
                nurse = instance.nurses[i]

                def by_definition(j, weights=weights):
                    return combined_score_by_definition(
                        instance, roster, weights.w_p, weights.w_grade, i, j, mode
                    )

                for j in nurse.feasible:
                    assert combined_score(instance, coverage, weights, i, j, mode) == (
                        by_definition(j)
                    )
                expected = first_argmax(nurse.feasible, by_definition)
                state = _band_state(instance, coverage, nurse, mode)
                assert _argmax_combined(instance, weights, mode, nurse, state) == expected
                changed += expected != first_argmax(
                    nurse.feasible, lambda j: by_definition(j, zero_past)
                )
            expected = combined_repair_by_definition(instance, roster, weights, mode)
            config = ReconstructionConfig(p1=0.0, p2=1.0, e_mode=mode)
            memo = PickMemo(instance)
            for _ in range(2):  # the second call is answered by the memo the first filled
                repaired = repair(instance, roster, config, weights, random.Random(trial),
                                  memo=memo)
                assert repaired.assignment == expected
    assert changed >= 10, changed


def reach_by_definition(instance, i: int) -> int:
    """Every bit of each cell (period k, band s+1) that some feasible pattern
    of nurse i works, for the bands s+1 >= her grade."""
    nurse = instance.nurses[i]
    fields = (1 << instance.field_width) - 1
    return sum(
        low_bit(instance, k, s) * fields
        for s in range(nurse.grade - 1, instance.g)
        for k in range(N_PERIODS)
        if any(instance.patterns[j].mask[k] for j in nurse.feasible)
    )


def hand_reach_instance():
    """Nurse 0 works only Mon, Wed and Fri days, nurse 1 has a day and a
    night pattern, and nurse 3's patterns leave Sunday night unworked."""
    patterns = [
        pattern(0, 0, 2, 4),
        pattern(1, 0, 2),
        pattern(2, 4),
        pattern(3, 7, 8, 9),
        pattern(4, 0, 1, 2, 3, 4),
        pattern(5, 9, 10, 11, 12),
        pattern(6, 1, 3, 5),
        pattern(7, 7, 13),
    ]
    nurses = [
        Nurse(0, 1, {0: 20, 1: 5, 2: 0}),
        Nurse(1, 2, {4: 10, 3: 10}),
        Nurse(2, 2, {4: 0, 6: 30, 7: 15}),
        Nurse(3, 1, {3: 40, 5: 0}),
        Nurse(4, 2, {6: 5, 1: 5, 5: 50}),
        Nurse(5, 1, {7: 0, 6: 0}),
    ]
    demand = demand_rows([[1, 2], [0, 1], [2, 3], [0, 2], [1, 1], [0, 1], [0, 0],
                          [1, 1], [0, 2], [1, 2], [0, 1], [0, 0], [1, 1], [0, 2]])
    return make_instance(patterns, nurses, demand)


def reach_cases():
    """Generated instances with g = 1-6 and the hand-built one, each with
    random partial rosters over it."""
    rng = random.Random(67)
    for trial in range(TRIALS):
        instance, roster = random_state(rng, trial, 1 + trial % 6)
        yield rng, instance, roster
    instance = hand_reach_instance()
    for _ in range(TRIALS):
        keep = rng.random()
        roster = Roster([
            rng.choice(nurse.feasible) if rng.random() < keep else None
            for nurse in instance.nurses
        ])
        yield rng, instance, roster


def test_reach_is_the_union_over_the_whole_feasible_list():
    for _, instance, _ in reach_cases():
        for i in range(instance.n):
            assert instance.reach[i] == reach_by_definition(instance, i)
    instance = hand_reach_instance()
    # nurse 0 reaches days 0, 2 and 4 only, nurse 1 days 0-4 and nights 7-9
    worked = [[k for k in range(N_PERIODS) if instance.reach[i] & low_bit(instance, k, 1)]
              for i in range(instance.n)]
    assert worked[0] == [0, 2, 4] and worked[1] == [0, 1, 2, 3, 4, 7, 8, 9]
    assert worked[3] == [7, 8, 9, 10, 11, 12]


def test_reach_mask_keeps_every_pick():
    """The rules' masks kept to a nurse's reach, as reconstruct keys its
    memo, give the same picks and scores as the unmasked ones."""
    masked_cover = masked_combined = 0
    for rng, instance, roster in reach_cases():
        coverage = compute_coverage(instance, roster)
        weights = random_weights(rng, instance.g)
        for nurse in instance.nurses:
            works = instance.reach[nurse.id] >> (nurse.grade - 1) * instance.band_span
            short = _focus_mask(instance, coverage, nurse)
            masked_cover += short != short & works
            assert _argmax_cover(instance, short & works, nurse) == _argmax_cover(
                instance, short, nurse
            )
            for mode in E_MODES:
                state = _band_state(instance, coverage, nurse, mode)
                masked_combined += state != state & works
                longest = instance.longest[nurse.id]
                terms = _band_terms(instance, weights, nurse.grade, longest, mode, state)
                masked = _band_terms(instance, weights, nurse.grade, longest, mode, state & works)
                # bit-equal floats, not merely the same pick
                assert [_scan_combined((row,), weights.w_p, masked)[0]
                        for row in instance.combined_scan[nurse.id]] == [
                    _scan_combined((row,), weights.w_p, terms)[0]
                    for row in instance.combined_scan[nurse.id]
                ]
                assert _argmax_combined(instance, weights, mode, nurse, state & works) == (
                    _argmax_combined(instance, weights, mode, nurse, state)
                )
    assert masked_cover > 500 and masked_combined > 1000, (masked_cover, masked_combined)


def test_a_dearer_earlier_pattern_wins_a_tie_with_a_cheaper_later_one():
    """Pattern 0 comes first in the feasible list but costs 10 more than
    pattern 1, and fills one more short cell (in shortfall mode, two more
    units of shortfall).  A band weight of 10 per cell (5 per unit) makes
    the scores tie, so the pick must be pattern 0 although the cost-ordered
    scan meets pattern 1 first."""
    instance = make_instance(
        [pattern(0, 0, 1), pattern(1, 2)],
        [Nurse(0, 1, {0: 20, 1: 10})],
        demand_rows([[2], [1], [1]] + [[0]] * (N_PERIODS - 3)),
    )
    assert combined_ids(instance, 0) == (1, 0)
    nurse, roster = instance.nurses[0], Roster([None])
    coverage = compute_coverage(instance, roster)
    for mode, band_weight, tie in (("indicator", 10.0, 100.0), ("shortfall", 5.0, 95.0)):
        weights = EvalWeights(w_p=1.0, w_grade=(band_weight,))
        scores = [combined_score(instance, coverage, weights, 0, j, mode) for j in (0, 1)]
        assert scores == [tie, tie]
        state = _band_state(instance, coverage, nurse, mode)
        assert _argmax_combined(instance, weights, mode, nurse, state) == 0
        config = ReconstructionConfig(p1=0.0, p2=1.0, e_mode=mode)
        repaired = repair(instance, roster, config, weights, random.Random(0))
        assert repaired.assignment == [0]


def test_the_cover_rule_returns_the_first_of_two_patterns_filling_every_short_cell():
    """Only Monday's day shift is short.  Pattern 0 misses it; patterns 1
    and 2 both fill it and neither works all of the other's periods, so
    both stay in the cover list and the earlier one in the feasible list
    wins, whichever that is."""
    patterns = [pattern(0, 4), pattern(1, 0, 3), pattern(2, 0, 5)]
    nurses = [Nurse(0, 1, {0: 0, 1: 0, 2: 0}),
              Nurse(1, 1, {0: 0, 2: 0, 1: 0})]
    instance = make_instance(patterns, nurses, demand_rows([[1]] + [[0]] * (N_PERIODS - 1)))
    coverage = compute_coverage(instance, Roster([None, None]))
    for nurse, first_full in zip(instance.nurses, (1, 2)):
        assert len(instance.cover_scan[nurse.id][0]) == 3
        short = _focus_mask(instance, coverage, nurse)
        assert _argmax_cover(instance, short, nurse) == first_full


def test_the_cover_rule_stops_at_the_first_pattern_as_long_as_her_longest(monkeypatch):
    """Monday to Friday days are short, five cells, and every pattern works
    at most 3 periods.  No pattern can fill more than 3 of the 5, so the
    first one filling 3 wins and no later row is scored: for nurse 0 that
    is pattern 1 after pattern 0 fills one, for nurse 1, whose list starts
    with pattern 2, the earlier of the two that fill 3.  Nurse 2's patterns
    fill at most 2, so her whole list is scored and the first of the tied
    patterns wins."""
    patterns = [pattern(0, 0, 7), pattern(1, 0, 1, 2), pattern(2, 2, 3, 4), pattern(3, 8, 9, 10),
                pattern(4, 0, 1, 7), pattern(5, 3, 4, 8), pattern(6, 9, 10, 11)]
    nurses = [Nurse(0, 1, dict.fromkeys((0, 1, 2, 3), 0)),
              Nurse(1, 1, dict.fromkeys((2, 0, 1, 3), 0)),
              Nurse(2, 1, dict.fromkeys((4, 5, 6), 0))]
    instance = make_instance(
        patterns, nurses, demand_rows([[1]] * 5 + [[0]] * (N_PERIODS - 5))
    )
    assert instance.longest == (3, 3, 3)
    roster = Roster.empty(instance.n)
    coverage = compute_coverage(instance, roster)
    rows_scored = count_rows_scored(monkeypatch)
    for nurse, pick, scored in zip(instance.nurses, (1, 2, 4), (2, 1, 3)):
        assert instance.cover_scan[nurse.id][0] == nurse.feasible
        short = _focus_mask(instance, coverage, nurse)
        assert short.bit_count() == 5
        rows_scored["cover"] = 0
        assert reconstruct_module._argmax_cover(instance, short, nurse) == pick
        assert rows_scored["cover"] == scored
        assert pick == first_argmax(
            nurse.feasible, lambda j: cover_value_by_definition(instance, roster, nurse.id, j)
        )


def bound_weights(rng: random.Random, g: int):
    """Drawn weights, the same with w_p = 0, and two whose products overflow:
    a band weight past 1e308 / 2 and a preference weight near 1e307."""
    drawn = random_weights(rng, g)
    huge_band = EvalWeights(w_p=round(rng.uniform(0.5, 2.0), 3),
                            w_grade=(1.7e308,) + drawn.w_grade[1:])
    huge_preference = EvalWeights(w_p=rng.choice((1e307, 5e306)), w_grade=drawn.w_grade)
    return (drawn, replace(drawn, w_p=0.0), huge_band, huge_preference)


def test_the_bound_stops_the_combined_scan_only_past_the_first_argmax(monkeypatch):
    """Per pattern of the cost-ordered scan, the bound (the score's float chain
    with each band count replaced by its cap, the sum over the band's levels
    of min(popcount, the nurse's longest pattern)) is at least the score and
    never rises along the scan, and the pick with the stop equals the first
    argmax over the whole feasible list.  With w_p = 0 every bound is equal,
    so the whole list is scored; otherwise the stop skips patterns.  Besides
    a random partial roster, each instance is checked on the empty roster
    and on one with a single nurse assigned, where bands have more short
    cells than a nurse's longest pattern works and the cap binds."""
    rows_scored = count_rows_scored(monkeypatch)
    rng = random.Random(71)
    skipped = overflowed = cover_checked = capped = 0
    for trial in range(TRIALS):
        instance, partial = random_state(rng, trial)
        weight_sets = bound_weights(rng, instance.g)
        one_nurse = Roster.empty(instance.n)
        one_nurse.assignment[0] = instance.nurses[0].feasible[0]
        for roster in (partial, Roster.empty(instance.n), one_nurse):
            coverage = compute_coverage(instance, roster)
            for weights in weight_sets:
                for i in [i for i, j in enumerate(roster.assignment) if j is None]:
                    nurse, longest = instance.nurses[i], instance.longest[i]
                    rows = instance.combined_scan[i]
                    for mode in E_MODES:
                        state = _band_state(instance, coverage, nurse, mode)
                        terms = _band_terms(instance, weights, nurse.grade, longest, mode, state)
                        binds = False
                        for ws, levels, most in terms:
                            # w_s * cap, no level counting more than her longest pattern works
                            assert most == ws * sum(min(cells.bit_count(), longest)
                                                    for cells in levels)
                            binds |= any(cells.bit_count() > longest for cells in levels)
                        bounds = []
                        for row in rows:
                            bound = weights.w_p * (100 - row[0])
                            for _, _, most in terms:
                                bound += most
                            score = _scan_combined((row,), weights.w_p, terms)[0]
                            assert bound >= score
                            assert score == combined_score(instance, coverage, weights, i, row[2],
                                                           mode)
                            overflowed += score == math.inf
                            bounds.append(bound)
                        assert bounds == sorted(bounds, reverse=True)
                        capped += binds
                        rows_scored["combined"] = 0
                        pick = _argmax_combined(instance, weights, mode, nurse, state)
                        assert pick == first_argmax(
                            nurse.feasible,
                            lambda j: combined_score_by_definition(
                                instance, roster, weights.w_p, weights.w_grade, i, j, mode
                            ),
                        )
                        if weights.w_p == 0:
                            assert rows_scored["combined"] == len(rows)
                        skipped += len(rows) - rows_scored["combined"]
                    short = _focus_mask(instance, coverage, nurse)
                    assert _argmax_cover(instance, short, nurse) == first_argmax(
                        nurse.feasible, lambda j: cover_value_by_definition(instance, roster, i, j)
                    )
                    cover_checked += 1
    assert skipped > 1000 and overflowed > 1000 and cover_checked > 1000, (
        skipped, overflowed, cover_checked
    )
    assert capped > 1000, capped
