"""Seeded equivalence of the bitmask scoring kernel with its definitions.

The reconstruction rules score patterns as popcounts of packed masks.  Here
every argmax is compared with a first-index argmax over the per-period
reference scores of tests/bruteforce.py, on random partial rosters with one
to three grade bands, in both e-modes and under non-integer weights; and
with one to five bands under fewer band weights than bands, where the last
weight covers the bands past the list.  The masks themselves are checked
against the shortfall matrix recomputed from the roster, and each nurse's
scan lists (the feasible patterns the argmax scans) against a pairwise
filter.
"""

from __future__ import annotations

import random
from dataclasses import replace

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
    _focus_mask,
    combined_score,
    reconstruct,
)

from bruteforce import (
    combined_score_by_definition,
    cover_value_by_definition,
    scan_lists_by_definition,
    shortfall_matrix,
)
from conftest import demand_rows, make_instance, pattern

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
            assert instance.grade_cells[0][pattern.id] & band == expected
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


def test_scan_lists_match_pairwise_definition():
    rng = random.Random(59)
    dropped = [0, 0]
    for trial in range(TRIALS):
        instance, _ = random_state(rng, trial)
        for i, nurse in enumerate(instance.nurses):
            cover, combined = scan_lists_by_definition(instance, i)
            scans = (instance.cover_scan[i], instance.combined_scan[i])
            for scan, ids in zip(scans, (cover, combined)):
                assert scan == (ids, tuple(instance.pattern_bits[j] for j in ids))
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
        Nurse(0, 1, (2, 0, 1, 3, 4), {2: 10, 0: 20, 1: 20, 3: 5, 4: 30}),
        Nurse(1, 1, (0, 2, 1), {0: 30, 2: 10, 1: 40}),
    ]
    demand = demand_rows([[2], [1], [2], [1]] + [[0]] * (N_PERIODS - 4))
    return make_instance(patterns, nurses, demand)


def test_scan_lists_on_hand_built_instance():
    instance = hand_scan_instance()
    assert [scan[0] for scan in instance.cover_scan] == [(2, 0, 4), (0,)]
    assert [scan[0] for scan in instance.combined_scan] == [(2, 0, 3, 4), (0, 2)]
    for i in range(instance.n):
        assert (instance.cover_scan[i][0], instance.combined_scan[i][0]) == (
            scan_lists_by_definition(instance, i)
        )
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
                assert _argmax_cover(instance, coverage, nurse, short) == expected
                for mode in E_MODES:
                    expected = first_argmax(
                        nurse.feasible,
                        lambda j: combined_score_by_definition(
                            instance, roster, weights.w_p, weights.w_grade, i, j, mode
                        ),
                    )
                    state = _band_state(instance, coverage, nurse, mode)
                    assert _argmax_combined(
                        instance, coverage, weights, nurse, mode, state
                    ) == expected


def test_cover_argmax_matches_definition():
    rng = random.Random(47)
    ties = dropped = 0
    for trial in range(TRIALS):
        instance, roster = random_state(rng, trial)
        coverage = compute_coverage(instance, roster)
        for i in roster.unassigned_ids():
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
            assert _argmax_cover(instance, coverage, nurse, short) == expected
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
            for i in roster.unassigned_ids():
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
                        nurse.feasible, instance.combined_scan[i][0], values
                    )
                    expected = first_argmax(nurse.feasible, by_definition)
                    state = _band_state(instance, coverage, nurse, mode)
                    assert _argmax_combined(
                        instance, coverage, weights, nurse, mode, state
                    ) == expected
    # a pattern left out of the scan tied the maximum, in each mode
    assert min(dropped.values()) >= 10, dropped


def combined_repair_by_definition(instance, roster, weights, mode) -> list[int]:
    """The combined rule's repair: each freed nurse, ascending, takes the first
    argmax of the definition on the roster repaired so far."""
    out = roster.copy()
    for i in roster.unassigned_ids():
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
            for i in roster.unassigned_ids():
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
                assert _argmax_combined(
                    instance, coverage, weights, nurse, mode, state
                ) == expected
                changed += expected != first_argmax(
                    nurse.feasible, lambda j: by_definition(j, zero_past)
                )
            expected = combined_repair_by_definition(instance, roster, weights, mode)
            config = ReconstructionConfig(p1=0.0, p2=1.0, p3=0.0, e_mode=mode)
            memo = PickMemo(instance)
            for _ in range(2):  # the second call is answered by the memo the first filled
                repaired = reconstruct(instance, roster, config, weights, random.Random(trial),
                                       memo=memo)
                assert repaired.assignment == expected
    assert changed >= 10, changed
