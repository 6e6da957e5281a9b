import random

import pytest

from nrp.eliminate import (
    EliminationConfig,
    eliminate_at_random,
    eliminate_by_fitness,
)
from nrp.model import IncompleteRosterError, Roster


class TestEliminationConfig:
    def test_rejects_rate_outside_unit_interval(self):
        with pytest.raises(ValueError, match="r_m"):
            EliminationConfig(r_m=1.5)

    def test_rejects_threshold_outside_unit_interval(self):
        with pytest.raises(ValueError, match="fixed_threshold"):
            EliminationConfig(fixed_threshold=-0.1)


class TestFitnessElimination:
    def test_perfect_fitness_always_survives(self):
        roster = Roster([0, 1, 2])
        out = eliminate_by_fitness(
            roster, [1.0, 1.0, 1.0], EliminationConfig(), random.Random(0)
        )
        assert out.assignment == [0, 1, 2]

    def test_threshold_comparison_is_inclusive(self):
        roster = Roster([5, 6, 7])
        config = EliminationConfig(fixed_threshold=0.5)
        out = eliminate_by_fitness(
            roster, [0.3, 0.5, 0.9], config, random.Random(0)
        )
        assert out.assignment == [None, None, 7]

    def test_input_roster_is_untouched(self):
        roster = Roster([1, 2])
        eliminate_by_fitness(
            roster, [0.0, 0.0], EliminationConfig(fixed_threshold=0.9), random.Random(0)
        )
        assert roster.assignment == [1, 2]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="match"):
            eliminate_by_fitness(
                Roster([0, 1]), [0.5], EliminationConfig(), random.Random(0)
            )

    def test_incomplete_roster_raises_naming_the_first_unassigned_nurse(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(IncompleteRosterError, match="nurse 1 is unassigned"):
            eliminate_by_fitness(
                Roster([0, None, None]), [1.0, 1.0, 1.0], EliminationConfig(), rng
            )
        assert rng.getstate() == state  # refused before the threshold draw

    def test_fixed_threshold_consumes_no_draws(self):
        rng = random.Random(99)
        eliminate_by_fitness(
            Roster([0]), [0.7], EliminationConfig(fixed_threshold=0.5), rng
        )
        assert rng.random() == random.Random(99).random()

    def test_random_threshold_consumes_exactly_one_draw(self):
        rng = random.Random(99)
        eliminate_by_fitness(Roster([0]), [0.7], EliminationConfig(), rng)
        reference = random.Random(99)
        reference.random()
        assert rng.random() == reference.random()

    def test_deterministic_given_rng_state(self):
        out = []
        for _ in range(2):
            rng = random.Random(1234)
            out.append(
                eliminate_by_fitness(
                    Roster(list(range(8))),
                    [i / 8 for i in range(8)],
                    EliminationConfig(),
                    rng,
                ).assignment
            )
        assert out[0] == out[1]

    def test_survival_law_matches_one_minus_fitness(self):
        # elimination happens iff f <= threshold, so its rate over uniform
        # thresholds is 1 - f to Monte-Carlo accuracy
        values = [0.0, 0.15, 0.4, 0.62, 0.85, 1.0]
        rng = random.Random(2024)
        trials = 10_000
        eliminated = [0] * len(values)
        roster = Roster(list(range(len(values))))
        for _ in range(trials):
            out = eliminate_by_fitness(roster, values, EliminationConfig(), rng)
            for i, j in enumerate(out.assignment):
                if j is None:
                    eliminated[i] += 1
        for value, count in zip(values, eliminated):
            assert count / trials == pytest.approx(1.0 - value, abs=0.02)


class TestRandomElimination:
    def test_zero_rate_keeps_everything(self):
        roster = Roster([3, None, 4])
        out = eliminate_at_random(roster, EliminationConfig(r_m=0.0), random.Random(0))
        assert out.assignment == [3, None, 4]

    def test_full_rate_releases_everything(self):
        roster = Roster([3, None, 4])
        out = eliminate_at_random(roster, EliminationConfig(r_m=1.0), random.Random(0))
        assert out.assignment == [None, None, None]

    def test_only_assigned_nurses_consume_draws(self):
        roster = Roster([7, None, 8])
        rng = random.Random(5)
        eliminate_at_random(roster, EliminationConfig(r_m=0.5), rng)
        reference = random.Random(5)
        reference.random()
        reference.random()
        assert rng.random() == reference.random()

    def test_never_assigns(self):
        rng = random.Random(17)
        for _ in range(50):
            roster = Roster([i if rng.random() < 0.7 else None for i in range(10)])
            out = eliminate_at_random(roster, EliminationConfig(r_m=0.3), rng)
            for before, after in zip(roster.assignment, out.assignment):
                assert after == before or after is None

    def test_release_count_matches_binomial_mean(self):
        # 20 assigned nurses at r_m = 0.05: one release per call on average
        roster = Roster(list(range(20)))
        rng = random.Random(31)
        trials = 10_000
        released = 0
        config = EliminationConfig(r_m=0.05)
        for _ in range(trials):
            out = eliminate_at_random(roster, config, rng)
            released += sum(1 for j in out.assignment if j is None)
        assert released / trials == pytest.approx(1.0, abs=0.1)
