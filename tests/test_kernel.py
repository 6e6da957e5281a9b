"""Seeded equivalence of the bitmask scoring kernel with its definitions.

The reconstruction rules score patterns as popcounts of packed masks.  Here
every argmax is compared with a first-index argmax over the per-period
reference scores of tests/bruteforce.py, on random partial rosters with one
to three grade bands, in both e-modes and under non-integer weights.  The
masks themselves are checked against the shortfall matrix recomputed from
the roster.
"""

from __future__ import annotations

import random

from nrp.evaluate import EvalWeights
from nrp.instance_io import GeneratorParams, generate_instance
from nrp.model import N_PERIODS, Roster, compute_coverage
from nrp.reconstruct import (
    E_MODES,
    _argmax_combined,
    _argmax_cover,
    _band_state,
    _focus_mask,
    combined_score,
)

from bruteforce import (
    combined_score_by_definition,
    cover_value_by_definition,
    shortfall_matrix,
)

TRIALS = 150


def random_state(rng: random.Random, trial: int):
    """A generated instance plus a random partial roster over it."""
    g = 1 + trial % 3
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


def test_cover_argmax_matches_definition():
    rng = random.Random(47)
    ties = 0
    for trial in range(TRIALS):
        instance, roster = random_state(rng, trial)
        coverage = compute_coverage(instance, roster)
        for i in roster.unassigned_ids():
            nurse = instance.nurses[i]
            values = [
                cover_value_by_definition(instance, roster, i, j) for j in nurse.feasible
            ]
            ties += values.count(max(values)) > 1
            expected = first_argmax(
                nurse.feasible, lambda j: cover_value_by_definition(instance, roster, i, j)
            )
            short = _focus_mask(instance, coverage, nurse)
            assert _argmax_cover(instance, coverage, nurse, short) == expected
    assert ties > 50  # the tie-break to the first pattern was exercised


def test_combined_argmax_matches_definition_in_both_modes():
    rng = random.Random(53)
    for trial in range(TRIALS):
        instance, roster = random_state(rng, trial)
        coverage = compute_coverage(instance, roster)
        weights = random_weights(rng, instance.g)
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
                expected = first_argmax(nurse.feasible, by_definition)
                state = _band_state(instance, coverage, nurse, mode)
                assert _argmax_combined(instance, coverage, weights, nurse, mode, state) == (
                    expected
                )
